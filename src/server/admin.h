#ifndef OIJ_SERVER_ADMIN_H_
#define OIJ_SERVER_ADMIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/watchdog.h"
#include "core/pipeline.h"
#include "join/engine.h"
#include "metrics/stats.h"
#include "net/http.h"
#include "wal/wal.h"

namespace oij {

/// Point-in-time server counters rendered by the admin endpoint. The
/// server snapshots its atomics into this plain struct so rendering is
/// pure (unit-testable without sockets).
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t admin_requests = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t frames_in = 0;
  uint64_t tuples_in = 0;
  uint64_t watermarks_in = 0;
  uint64_t frames_rejected = 0;
  uint64_t results_streamed = 0;
  uint64_t subscribers = 0;
  /// Subscribers force-dropped because their write backlog exceeded
  /// ServerConfig::max_subscriber_backlog_bytes (stalled/half-open
  /// peers must not wedge the egress path for everyone else).
  uint64_t subscribers_evicted = 0;
  /// kWatermarkAck frames sent to hello'd peers that requested them.
  uint64_t watermark_acks = 0;
  /// kHello frames refused (bad magic/version, or not the first frame).
  uint64_t hellos_rejected = 0;
};

/// Everything the admin pages render, assembled by the server thread.
struct AdminSnapshot {
  std::string engine_name;
  std::string workload_name;
  ServerCounters counters;

  /// Live engine progress, loss counters, allocator and NUMA gauges.
  WatchdogSample progress;

  /// Live engine health; not-OK renders /healthz as 503.
  Status health;

  double uptime_seconds = 0.0;

  /// True while the engine replays its WAL after a restart. Renders
  /// /healthz as 503 ("recovering") and /statz state "recovering" so
  /// load balancers hold traffic until replay completes.
  bool recovering = false;

  /// Durability counters (WalStats.enabled is false when the engine has
  /// no WAL; only the recovering flag renders then).
  WalStats wal;

  /// Seconds since the last completed snapshot, computed by the server
  /// from WalStats.last_snapshot_mono_us; negative = no snapshot yet
  /// (the gauge is omitted from /metrics and rendered null in /statz
  /// then — exporting the -1 sentinel as a Prometheus sample poisons
  /// age-based alert rules).
  double snapshot_age_seconds = -1.0;

  /// Standing-query catalog rows (engine->QuerySnapshot()); empty for
  /// engines without a catalog; row 0, the primary, has the live late counts.
  std::vector<QueryStatsRow> queries;

  /// Set once the run has been finalized; `final_run` then carries what
  /// exists only at the end (throughput, latency histogram, warnings).
  bool run_finished = false;
  RunResult final_run;
};

/// Every stat the server's admin pages render, in /statz order: the one
/// declaration behind both /metrics and /statz. It points into `snap`'s
/// latency histogram, so `snap` must outlive it.
StatList ServerStats(const AdminSnapshot& snap);

/// Prometheus text-exposition body for GET /metrics.
std::string RenderPrometheusMetrics(const AdminSnapshot& snap);

/// RunSummary-style JSON body for GET /statz.
std::string RenderStatzJson(const AdminSnapshot& snap);

/// Body for GET /healthz; `status_code` becomes 200 or 503.
std::string RenderHealthz(const AdminSnapshot& snap, int* status_code);

/// JSON body for GET /queries: the standing-query catalog with per-query
/// counters.
std::string RenderQueriesJson(const std::vector<QueryStatsRow>& queries);

/// Parses the flat-JSON body of POST /queries:
///
///   {"id": "q1", "pre": 1000, "fol": 0, "agg": "sum",
///    "late": "drop_and_count"}
///
/// `id` is required; pre/fol/agg/late default to `defaults` (the primary
/// query's spec). lateness/emit are accepted but must equal the
/// defaults' values — the shared-index contract pins them — and that
/// mismatch, like any unknown key, duplicate key, or type error, returns
/// InvalidArgument with a message naming the offending field.
Status ParseQuerySpecJson(std::string_view body, const QuerySpec& defaults,
                          std::string* id, QuerySpec* spec);

/// Maps a catalog Status to an admin-plane HTTP status code
/// (InvalidArgument/ParseError/FailedPrecondition -> 400, NotFound ->
/// 404, anything else -> 500).
int HttpStatusForStatus(const Status& status);

/// Complete HTTP response carrying the structured error body
/// {"error": {"code": "...", "message": "..."}} for a failed catalog
/// mutation.
std::string BuildQueryErrorResponse(const Status& status);

/// Routes one parsed admin request to the pages above and wraps the
/// result in a complete HTTP/1.0 response (404 on unknown paths, 405 on
/// unsupported methods). GET only — the mutating /queries verbs touch
/// the live engine and are intercepted by the server loop before this.
std::string HandleAdminRequest(const AdminSnapshot& snap,
                               const HttpRequest& request);

}  // namespace oij

#endif  // OIJ_SERVER_ADMIN_H_
