#include "server/admin.h"

#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>

#include "core/run_summary.h"

namespace oij {

namespace {

/// Late-tuple dispositions: the JSON key, and the Prometheus label value.
constexpr std::pair<const char*, uint64_t LateStats::*> kDispositions[] = {
    {"joined", &LateStats::joined},
    {"dropped", &LateStats::dropped},
    {"side_channel", &LateStats::side_channel}};

/// The standing-query catalog as a table (shared by /statz and /queries).
void AddQueryRows(StatList& l, const std::vector<QueryStatsRow>& rows) {
  using Row = QueryStatsRow;
  std::vector<std::string> ids;
  for (const Row& q : rows) ids.push_back(q.id);
  auto text = [&](const char* path, auto get) {
    l.Column(StatType::kText, path, "", "", "query", rows, ids, get);
  };
  text("queries[].id", [](const Row& q) { return q.id; });
  l.Column(StatType::kGauge, "queries[].ord", "oij_query_ord",
           "Catalog ordinal of the standing query", "query", rows, ids,
           [](const Row& q) { return q.ord; });
  l.Column(StatType::kFlag, "queries[].active", "oij_query_active",
           "1 while the standing query accepts new base tuples", "query",
           rows, ids, [](const Row& q) { return q.active; });
  l.Column(StatType::kGauge, "queries[].pre", "oij_query_window_pre_us",
           "Window PRE offset of the standing query", "query", rows, ids,
           [](const Row& q) { return q.spec.window.pre; });
  l.Column(StatType::kGauge, "queries[].fol", "oij_query_window_fol_us",
           "Window FOL offset of the standing query", "query", rows, ids,
           [](const Row& q) { return q.spec.window.fol; });
  l.Column(StatType::kGauge, "queries[].lateness", "oij_query_lateness_us",
           "Lateness bound of the standing query", "query", rows, ids,
           [](const Row& q) { return q.spec.lateness_us; });
  text("queries[].agg", [](const Row& q) { return AggKindName(q.spec.agg); });
  text("queries[].emit",
       [](const Row& q) { return EmitModeName(q.spec.emit_mode); });
  text("queries[].late_policy",
       [](const Row& q) { return LatePolicyName(q.spec.late_policy); });
  l.Column(StatType::kCounter, "queries[].results", "oij_query_results_total",
           "Join results emitted per standing query", "query", rows, ids,
           [](const Row& q) { return q.results; });
  l.Column(StatType::kCounter, "queries[].late.tuples",
           "oij_query_late_total",
           "Lateness-bound violations observed per standing query", "query",
           rows, ids, [](const Row& q) { return q.late.tuples; });
  for (const auto& [name, count] : kDispositions) {
    l.Column(StatType::kCounter, std::string("queries[].late.") + name,
             "oij_query_late_tuples_total",
             "Lateness-bound violations per standing query by disposition",
             "query", rows, ids, [&](const Row& q) { return q.late.*count; })
        .labels = {{"disposition", name}};
  }
}

}  // namespace

StatList ServerStats(const AdminSnapshot& snap) {
  StatList l;
  l.Text("state", snap.recovering
                      ? "recovering"
                      : (snap.run_finished ? "finished" : "serving"));
  l.Text("engine", snap.engine_name);
  l.Text("workload", snap.workload_name);
  l.Gauge("up", "oij_up", "1 while the server is serving", 1.0,
          {{"engine", snap.engine_name}, {"workload", snap.workload_name}});
  l.Gauge("uptime_seconds", "oij_uptime_seconds",
          "Seconds since the server started", snap.uptime_seconds);
  l.Flag("run_finished", "oij_run_finished",
         "1 once the run has been finalized", snap.run_finished);
  l.Flag("health.ok", "oij_healthy",
         "1 while the engine health probe reports OK", snap.health.ok());
  l.Text("health.status", snap.health.ToString());

  const ServerCounters& c = snap.counters;
  l.Counter("server.connections_accepted", "oij_connections_accepted_total",
            "Data-plane connections accepted", c.connections_accepted);
  l.Gauge("server.connections_open", "oij_connections_open",
          "Data-plane connections currently open", c.connections_open);
  l.Counter("server.admin_requests", "oij_admin_requests_total",
            "Admin HTTP requests served", c.admin_requests);
  l.Counter("server.bytes_in", "oij_ingest_bytes_total",
            "Bytes received on the data plane", c.bytes_in);
  l.Counter("server.bytes_out", "oij_egress_bytes_total",
            "Bytes written on the data plane", c.bytes_out);
  l.Counter("server.frames_in", "oij_frames_total",
            "Well-formed wire frames decoded", c.frames_in);
  l.Counter("server.frames_rejected", "oij_frames_rejected_total",
            "Malformed frames that closed their connection",
            c.frames_rejected);
  l.Counter("server.tuples_in", "oij_ingest_tuples_total",
            "Tuple frames ingested", c.tuples_in);
  l.Counter("server.watermarks_in", "oij_ingest_watermarks_total",
            "Watermark frames ingested", c.watermarks_in);
  l.Counter("server.results_streamed", "oij_results_streamed_total",
            "Result frames queued to subscribers", c.results_streamed);
  l.Gauge("server.subscribers", "oij_subscribers",
          "Connections subscribed to results", c.subscribers);
  l.Counter("server.subscribers_evicted", "oij_subscribers_evicted_total",
            "Subscribers dropped for exceeding the egress backlog bound",
            c.subscribers_evicted);
  l.Counter("server.watermark_acks", "oij_watermark_acks_total",
            "Watermark acknowledgements sent to hello'd peers",
            c.watermark_acks);
  l.Counter("server.hellos_rejected", "oij_hellos_rejected_total",
            "Handshake frames refused (magic/version/order)",
            c.hellos_rejected);

  // Live engine progress; it stays valid after Finish().
  const WatchdogSample& p = snap.progress;
  l.Counter("engine_progress.accepted_tuples",
            "oij_engine_accepted_tuples_total",
            "Tuples the engine's router accepted", p.pushed);
  l.Counter("engine_progress.watermarks", "oij_engine_watermarks_total",
            "Watermark punctuations signaled to the engine", p.watermarks);
  l.Column(StatType::kGauge, "engine_progress.queue_depths",
           "oij_joiner_queue_depth", "Router->joiner ring occupancy (events)",
           "joiner", p.queue_depths, {});
  l.Column(StatType::kCounter, "engine_progress.consumed",
           "oij_joiner_consumed_total", "Events processed per joiner",
           "joiner", p.consumed, {});

  // Allocator gauges (zero for engines without node arenas).
  const MemStats& m = p.mem;
  l.Gauge("engine_progress.memory.arena_bytes", "oij_arena_bytes",
          "Slab bytes reserved by the joiner-owned node arenas",
          m.arena_reserved_bytes);
  l.Gauge("engine_progress.memory.arena_live_nodes", "oij_arena_live_nodes",
          "Nodes resident in the node arenas", m.arena_live_nodes);
  l.Gauge("engine_progress.memory.ebr_retired_backlog",
          "oij_ebr_retired_backlog",
          "Nodes retired to EBR and awaiting epoch drain",
          m.ebr_retired_backlog);
  l.Counter("engine_progress.memory.arena_slab_recycles",
            "oij_arena_slab_recycles_total",
            "Fully-dead slabs returned to the arena empty pool",
            m.arena_slab_recycles);
  l.Flag("engine_progress.memory.pooled", "oij_arena_pooled",
         "1 when the engine allocates its index from node arenas", m.pooled);
  l.Gauge("engine_progress.memory.arena_reserved_bytes",
          "oij_arena_reserved_bytes",
          "Slab bytes reserved by the node arenas (alias of "
          "oij_arena_bytes)",
          m.arena_reserved_bytes);
  l.Counter("engine_progress.memory.arena_allocations",
            "oij_arena_allocations_total", "Nodes allocated from the arenas",
            m.arena_allocations);

  // NUMA placement (src/topo/); the per-joiner and per-node series are
  // empty unless a placement plan is active or the engine has arenas.
  const NumaStats& numa = p.numa;
  l.Flag("engine_progress.numa.active", "oij_numa_active",
         "1 while joiners run pinned under a NUMA placement plan",
         numa.active);
  l.Gauge("engine_progress.numa.nodes", "oij_numa_nodes",
          "NUMA nodes the engine's placement plan spans", numa.nodes);
  l.Column(StatType::kGauge, "engine_progress.numa.pin_cpus",
           "oij_numa_joiner_cpu",
           "CPU each joiner thread is pinned to (-1 = unpinned)", "joiner",
           numa.pin_cpus, {});
  l.Column(StatType::kGauge, "engine_progress.numa.joiner_node",
           "oij_numa_joiner_node", "NUMA node ordinal of each joiner",
           "joiner", numa.joiner_node, {});
  l.Column(StatType::kGauge, "engine_progress.numa.per_node_arena_bytes",
           "oij_numa_node_arena_bytes",
           "Arena slab bytes reserved by joiners of each NUMA node", "node",
           numa.per_node_arena_bytes, {});
  l.Column(StatType::kGauge,
           "engine_progress.numa.per_node_arena_live_nodes",
           "oij_numa_node_arena_live_nodes",
           "Index nodes resident in each NUMA node's arenas", "node",
           numa.per_node_arena_live_nodes, {});
  l.Counter("engine_progress.numa.cross_replications",
            "oij_numa_cross_replications_total",
            "Partition replicas the rebalancer placed on a remote node",
            numa.cross_replications);
  l.Counter("engine_progress.numa.cross_dispatches",
            "oij_numa_cross_dispatches_total",
            "Tuple dispatches routed off the partition leader's node",
            numa.cross_dispatches);

  // Loss: late tuples of the primary query, and backpressure.
  const LateStats late =
      snap.queries.empty() ? LateStats{} : snap.queries[0].late;
  l.Counter("engine_progress.late.tuples", "oij_late_total",
            "Lateness-bound violations observed", late.tuples);
  for (const auto& [name, count] : kDispositions) {
    l.Counter(std::string("engine_progress.late.") + name,
              "oij_late_tuples_total",
              "Lateness-bound violations by disposition", late.*count,
              {{"disposition", name}});
  }
  l.Counter("engine_progress.overload.dropped", "oij_overload_dropped_total",
            "Tuples lost to backpressure", p.overload_dropped);
  l.Counter("engine_progress.overload.shed", "oij_overload_shed_total",
            "Tuples shed by the kShedOldest policy", p.overload_shed);
  l.Counter("engine_progress.overload.control_lost", "oij_control_lost_total",
            "Watermark/flush punctuations lost to stop/deadline",
            p.control_lost);

  if (!snap.queries.empty()) AddQueryRows(l, snap.queries);

  l.Flag("wal.recovering", "oij_recovering",
         "1 while the engine is replaying its WAL", snap.recovering);
  if (snap.wal.enabled) {
    const WalStats& wal = snap.wal;
    l.Counter("wal.appended_records", "oij_wal_appended_records_total",
              "Records appended to the write-ahead log",
              wal.appended_records);
    l.Counter("wal.appended_bytes", "oij_wal_appended_bytes",
              "Bytes appended to the write-ahead log", wal.appended_bytes);
    l.Gauge("wal.synced_records", "oij_wal_synced_records",
            "Appended records known durable; appended - synced bounds "
            "crash loss",
            wal.synced_records);
    l.Counter("wal.fsyncs", "oij_wal_fsyncs_total",
              "fsync calls issued by group commit", wal.fsyncs);
    l.Counter("wal.fsync_failures", "oij_wal_fsync_failures_total",
              "Injected fsync failures (disk-fault harness)",
              wal.fsync_failures);
    l.Counter("wal.short_writes", "oij_wal_short_writes_total",
              "Injected short writes (disk-fault harness)", wal.short_writes);
    l.Counter("wal.snapshots_taken", "oij_snapshots_total",
              "Snapshot epochs committed", wal.snapshots_taken);
    l.Gauge("wal.snapshot_records", "oij_wal_snapshot_records",
            "Records in the last committed snapshot", wal.snapshot_records);
    // Absent (JSON null, no sample) until the first snapshot commits:
    // the -1 "never" sentinel as a sample reads as a negative age and
    // poisons `oij_snapshot_age_seconds > X` alert rules.
    l.Gauge("wal.snapshot_age_seconds", "oij_snapshot_age_seconds",
            "Seconds since the last committed snapshot",
            snap.snapshot_age_seconds >= 0.0 ? snap.snapshot_age_seconds
                                             : std::nan(""));
    l.Counter("wal.replay_records", "oij_wal_replay_records",
              "Records replayed through ingest during recovery",
              wal.replay_records);
    l.Counter("wal.replay_watermarks", "oij_wal_replay_watermarks",
              "Watermarks replayed during recovery", wal.replay_watermarks);
    l.Counter("wal.torn_records", "oij_wal_torn_records_total",
              "Torn or corrupt tail records discarded during recovery",
              wal.torn_records);
    l.Gauge("wal.recovery_duration_us", "oij_recovery_duration_us",
            "Wall time of the last crash recovery (0 = none ran)",
            wal.recovery_duration_us);
  }

  // Final-only: these exist once Finish() has merged the joiners. The
  // latency histogram is per joiner until then.
  if (snap.run_finished) {
    const RunResult& run = snap.final_run;
    const LatencyRecorder& lat = run.stats.latency;
    l.Counter("run.tuples", "oij_run_input_tuples_total",
              "Input tuples of the finalized run", run.tuples);
    l.Gauge("run.elapsed_seconds", "oij_run_elapsed_seconds",
            "Wall time of the finalized run", run.elapsed_seconds);
    l.Gauge("run.throughput_tps", "oij_run_throughput_tps",
            "Input tuples per second of the finalized run",
            run.throughput_tps);
    l.Counter("run.results", "oij_run_results_total",
              "Results of the finalized run", run.stats.results);
    // The Percentile <= max invariant of the recorder carries through.
    for (const auto& [key, label, q] : {std::tuple{"p50", "0.5", 0.5},
                                        std::tuple{"p90", "0.9", 0.9},
                                        std::tuple{"p99", "0.99", 0.99}}) {
      l.Gauge(std::string("run.latency_us.") + key,
              "oij_result_latency_quantile_us",
              "Result latency summary quantiles", lat.Percentile(q),
              {{"quantile", label}});
    }
    l.Gauge("run.latency_us.max", "oij_result_latency_max_us",
            "Maximum observed result latency", lat.max_us());
    l.Gauge("run.latency_us.mean", "oij_result_latency_mean_us",
            "Mean result latency", lat.mean_us());
    l.Add(StatType::kHistogram, "run.latency_us.count",
          "oij_result_latency_us",
          "Result latency (arrival to emit, microseconds)")
        .histogram = &lat;
    l.Column(StatType::kText, "run.warnings", "", "", "warning",
             run.stats.warnings, {});
  }
  return l;
}

std::string RenderPrometheusMetrics(const AdminSnapshot& snap) {
  return RenderStatsPrometheus(ServerStats(snap).stats());
}

std::string RenderStatzJson(const AdminSnapshot& snap) {
  return RenderStatsJson(ServerStats(snap).stats());
}

std::string RenderQueriesJson(const std::vector<QueryStatsRow>& queries) {
  StatList list;
  AddQueryRows(list, queries);
  return RenderStatsJson(list.stats());
}

namespace {

/// Cursor over the flat-JSON object POST /queries accepts. Only the
/// shapes that body can legally contain: one object of string/integer
/// values, no nesting, escape handling limited to \" \\ \/ (ids are
/// [A-Za-z0-9_.-] anyway, so anything fancier is rejected downstream).
struct JsonCursor {
  std::string_view in;
  size_t pos = 0;

  void SkipWs() {
    while (pos < in.size() &&
           (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
            in[pos] == '\r')) {
      ++pos;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos < in.size() && in[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return pos < in.size() && in[pos] == c;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos < in.size()) {
      const char c = in[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= in.size()) return false;
        const char e = in[pos++];
        if (e != '"' && e != '\\' && e != '/') return false;
        out->push_back(e);
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }
  bool ParseInt(int64_t* out) {
    SkipWs();
    const size_t start = pos;
    if (pos < in.size() && in[pos] == '-') ++pos;
    const size_t digits = pos;
    while (pos < in.size() && in[pos] >= '0' && in[pos] <= '9') ++pos;
    if (pos == digits) {
      pos = start;
      return false;
    }
    int64_t v = 0;
    for (size_t i = digits; i < pos; ++i) {
      if (v > (INT64_MAX - (in[i] - '0')) / 10) {
        pos = start;
        return false;
      }
      v = v * 10 + (in[i] - '0');
    }
    *out = in[start] == '-' ? -v : v;
    return true;
  }
};

}  // namespace

Status ParseQuerySpecJson(std::string_view body, const QuerySpec& defaults,
                          std::string* id, QuerySpec* spec) {
  *spec = defaults;
  id->clear();
  bool saw_id = false;
  bool saw_lateness = false;
  bool saw_emit = false;
  Timestamp lateness = defaults.lateness_us;
  std::string emit_name;

  JsonCursor c{body};
  if (!c.Consume('{')) {
    return Status::InvalidArgument("body must be a JSON object");
  }
  std::vector<std::string> seen;
  if (!c.Peek('}')) {
    do {
      std::string key;
      if (!c.ParseString(&key)) {
        return Status::InvalidArgument("expected a string key");
      }
      for (const std::string& s : seen) {
        if (s == key) {
          return Status::InvalidArgument("duplicate field '" + key + "'");
        }
      }
      seen.push_back(key);
      if (!c.Consume(':')) {
        return Status::InvalidArgument("expected ':' after '" + key + "'");
      }
      if (key == "id" || key == "agg" || key == "emit" || key == "late") {
        std::string value;
        if (!c.ParseString(&value)) {
          return Status::InvalidArgument("field '" + key +
                                         "' must be a string");
        }
        if (key == "id") {
          *id = value;
          saw_id = true;
        } else if (key == "agg") {
          const Status s = AggKindFromName(value, &spec->agg);
          if (!s.ok()) return Status::InvalidArgument(s.message());
        } else if (key == "emit") {
          emit_name = value;
          saw_emit = true;
        } else {
          const Status s = LatePolicyFromName(value, &spec->late_policy);
          if (!s.ok()) return Status::InvalidArgument(s.message());
        }
      } else if (key == "pre" || key == "fol" || key == "lateness") {
        int64_t value = 0;
        if (!c.ParseInt(&value)) {
          return Status::InvalidArgument("field '" + key +
                                         "' must be an integer");
        }
        if (key == "pre") {
          spec->window.pre = value;
        } else if (key == "fol") {
          spec->window.fol = value;
        } else {
          lateness = value;
          saw_lateness = true;
        }
      } else {
        return Status::InvalidArgument("unknown field '" + key + "'");
      }
    } while (c.Consume(','));
  }
  if (!c.Consume('}')) {
    return Status::InvalidArgument("malformed JSON object");
  }
  c.SkipWs();
  if (c.pos != body.size()) {
    return Status::InvalidArgument("trailing bytes after the JSON object");
  }
  if (!saw_id) {
    return Status::InvalidArgument("missing required field 'id'");
  }
  // The shared index pins the tuple-admission properties: every standing
  // query shares the primary's lateness bound and emit mode, so a body
  // may restate them only verbatim.
  if (saw_lateness && lateness != defaults.lateness_us) {
    return Status::InvalidArgument(
        "field 'lateness' must match the primary query (" +
        std::to_string(defaults.lateness_us) + ")");
  }
  if (saw_emit) {
    EmitMode mode;
    const Status s = EmitModeFromName(emit_name, &mode);
    if (!s.ok()) return Status::InvalidArgument(s.message());
    if (mode != defaults.emit_mode) {
      return Status::InvalidArgument(
          "field 'emit' must match the primary query (" +
          std::string(EmitModeName(defaults.emit_mode)) + ")");
    }
  }
  return Status::OK();
}

int HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
      return 200;
    case Status::Code::kInvalidArgument:
    case Status::Code::kParseError:
    case Status::Code::kFailedPrecondition:
      return 400;
    case Status::Code::kNotFound:
      return 404;
    default:
      return 500;
  }
}

std::string BuildQueryErrorResponse(const Status& status) {
  JsonOut j;
  j.Open('{');
  j.Key("error");
  j.Open('{');
  j.Key("code");
  j.String(CodeName(status.code()));
  j.Key("message");
  j.String(status.message());
  j.Close('}');
  j.Close('}');
  std::string body = j.Take();
  body += '\n';
  return BuildHttpResponse(HttpStatusForStatus(status), "application/json",
                           body);
}

std::string RenderHealthz(const AdminSnapshot& snap, int* status_code) {
  if (snap.recovering) {
    // Not ready: the engine is still replaying its WAL. 503 keeps load
    // balancers away until the replayed state is live.
    *status_code = 503;
    return "recovering\n";
  }
  if (snap.health.ok()) {
    *status_code = 200;
    return "ok\n";
  }
  *status_code = 503;
  return snap.health.ToString() + "\n";
}

std::string HandleAdminRequest(const AdminSnapshot& snap,
                               const HttpRequest& request) {
  if (request.method != "GET") {
    return BuildHttpResponse(405, "text/plain; charset=utf-8",
                             "only GET is supported\n");
  }
  if (request.path == "/metrics") {
    return BuildHttpResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                             RenderPrometheusMetrics(snap));
  }
  if (request.path == "/healthz") {
    int code = 200;
    const std::string body = RenderHealthz(snap, &code);
    return BuildHttpResponse(code, "text/plain; charset=utf-8", body);
  }
  if (request.path == "/statz") {
    return BuildHttpResponse(200, "application/json", RenderStatzJson(snap));
  }
  if (request.path == "/queries") {
    return BuildHttpResponse(200, "application/json",
                             RenderQueriesJson(snap.queries));
  }
  if (request.path == "/") {
    return BuildHttpResponse(
        200, "text/plain; charset=utf-8",
        "oij_server admin endpoints: /metrics /healthz /statz /queries\n");
  }
  return BuildHttpResponse(404, "text/plain; charset=utf-8",
                           "unknown path: " + request.path + "\n");
}

}  // namespace oij
