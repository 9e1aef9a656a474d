#include "server/admin.h"

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "core/run_summary.h"
#include "metrics/prometheus.h"

namespace oij {

namespace {

/// Minimal append-style JSON builder (objects/arrays nested by hand at
/// the call site; this only handles correct escaping and number forms).
class JsonOut {
 public:
  void Raw(std::string_view s) { out_.append(s); }

  void Key(std::string_view name) {
    String(name);  // String() emits the separating comma
    out_ += ":";
    pending_comma_ = false;
  }

  void String(std::string_view s) {
    Comma();
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\r':
          out_ += "\\r";
          break;
        case '\t':
          out_ += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
    pending_comma_ = true;
  }

  void Number(double v) {
    Comma();
    if (!std::isfinite(v)) {
      Raw("null");
    } else if (v == std::floor(v) && std::abs(v) < 1e15) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0f", v);
      Raw(buf);
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      Raw(buf);
    }
    pending_comma_ = true;
  }

  void Number(uint64_t v) { Number(static_cast<double>(v)); }
  void Number(int64_t v) { Number(static_cast<double>(v)); }

  void Bool(bool v) {
    Comma();
    Raw(v ? "true" : "false");
    pending_comma_ = true;
  }

  void Null() {
    Comma();
    Raw("null");
    pending_comma_ = true;
  }

  void Open(char bracket) {
    Comma();
    out_ += bracket;
    pending_comma_ = false;
  }
  void Close(char bracket) {
    out_ += bracket;
    pending_comma_ = true;
  }

  std::string Take() { return std::move(out_); }

 private:
  void Comma() {
    if (pending_comma_) out_ += ',';
    pending_comma_ = false;
  }

  std::string out_;
  bool pending_comma_ = false;
};

/// Emits the standing-query catalog as a JSON array (shared by /statz
/// and /queries).
void AppendQueryRows(JsonOut& j, const std::vector<QueryStatsRow>& queries) {
  j.Open('[');
  for (const QueryStatsRow& q : queries) {
    j.Open('{');
    j.Key("id");
    j.String(q.id);
    j.Key("ord");
    j.Number(static_cast<uint64_t>(q.ord));
    j.Key("active");
    j.Bool(q.active);
    j.Key("pre");
    j.Number(static_cast<int64_t>(q.spec.window.pre));
    j.Key("fol");
    j.Number(static_cast<int64_t>(q.spec.window.fol));
    j.Key("lateness");
    j.Number(static_cast<int64_t>(q.spec.lateness_us));
    j.Key("agg");
    j.String(AggKindName(q.spec.agg));
    j.Key("emit");
    j.String(EmitModeName(q.spec.emit_mode));
    j.Key("late_policy");
    j.String(LatePolicyName(q.spec.late_policy));
    j.Key("results");
    j.Number(q.results);
    j.Key("late");
    j.Open('{');
    j.Key("tuples");
    j.Number(q.late.tuples);
    j.Key("joined");
    j.Number(q.late.joined);
    j.Key("dropped");
    j.Number(q.late.dropped);
    j.Key("side_channel");
    j.Number(q.late.side_channel);
    j.Close('}');
    j.Close('}');
  }
  j.Close(']');
}

}  // namespace

std::string RenderPrometheusMetrics(const AdminSnapshot& snap) {
  PrometheusWriter w;
  const PrometheusLabels run_labels = {{"engine", snap.engine_name},
                                       {"workload", snap.workload_name}};

  w.Gauge("oij_up", "1 while the server is serving", 1.0, run_labels);
  w.Gauge("oij_uptime_seconds", "Seconds since the server started",
          snap.uptime_seconds);
  w.Gauge("oij_healthy", "1 while the engine health probe reports OK",
          snap.health.ok() ? 1.0 : 0.0);
  w.Gauge("oij_run_finished", "1 once the run has been finalized",
          snap.run_finished ? 1.0 : 0.0);
  w.Gauge("oij_recovering", "1 while the engine is replaying its WAL",
          snap.recovering ? 1.0 : 0.0);

  const ServerCounters& c = snap.counters;
  w.Counter("oij_connections_accepted_total",
            "Data-plane connections accepted",
            static_cast<double>(c.connections_accepted));
  w.Gauge("oij_connections_open", "Data-plane connections currently open",
          static_cast<double>(c.connections_open));
  w.Counter("oij_admin_requests_total", "Admin HTTP requests served",
            static_cast<double>(c.admin_requests));
  w.Counter("oij_ingest_bytes_total", "Bytes received on the data plane",
            static_cast<double>(c.bytes_in));
  w.Counter("oij_egress_bytes_total", "Bytes written on the data plane",
            static_cast<double>(c.bytes_out));
  w.Counter("oij_frames_total", "Well-formed wire frames decoded",
            static_cast<double>(c.frames_in));
  w.Counter("oij_frames_rejected_total",
            "Malformed frames that closed their connection",
            static_cast<double>(c.frames_rejected));
  w.Counter("oij_ingest_tuples_total", "Tuple frames ingested",
            static_cast<double>(c.tuples_in));
  w.Counter("oij_ingest_watermarks_total", "Watermark frames ingested",
            static_cast<double>(c.watermarks_in));
  w.Counter("oij_results_streamed_total",
            "Result frames queued to subscribers",
            static_cast<double>(c.results_streamed));
  w.Gauge("oij_subscribers", "Connections subscribed to results",
          static_cast<double>(c.subscribers));
  w.Counter("oij_subscribers_evicted_total",
            "Subscribers dropped for exceeding the egress backlog bound",
            static_cast<double>(c.subscribers_evicted));
  w.Counter("oij_watermark_acks_total",
            "Watermark acknowledgements sent to hello'd peers",
            static_cast<double>(c.watermark_acks));
  w.Counter("oij_hellos_rejected_total",
            "Handshake frames refused (magic/version/order)",
            static_cast<double>(c.hellos_rejected));

  // Live engine progress: router intake and the per-joiner rings.
  w.Counter("oij_engine_accepted_tuples_total",
            "Tuples the engine's router accepted",
            static_cast<double>(snap.progress.pushed));
  w.Counter("oij_engine_watermarks_total",
            "Watermark punctuations signaled to the engine",
            static_cast<double>(snap.progress.watermarks));
  for (size_t j = 0; j < snap.progress.queue_depths.size(); ++j) {
    w.Gauge("oij_joiner_queue_depth",
            "Router->joiner ring occupancy (events)",
            static_cast<double>(snap.progress.queue_depths[j]),
            {{"joiner", std::to_string(j)}});
  }
  for (size_t j = 0; j < snap.progress.consumed.size(); ++j) {
    w.Counter("oij_joiner_consumed_total", "Events processed per joiner",
              static_cast<double>(snap.progress.consumed[j]),
              {{"joiner", std::to_string(j)}});
  }

  // Allocator gauges (live; zero for engines without node arenas).
  w.Gauge("oij_arena_bytes",
          "Slab bytes reserved by the joiner-owned node arenas",
          static_cast<double>(snap.progress.arena_bytes));
  w.Gauge("oij_arena_live_nodes", "Nodes resident in the node arenas",
          static_cast<double>(snap.progress.arena_live_nodes));
  w.Gauge("oij_ebr_retired_backlog",
          "Nodes retired to EBR and awaiting epoch drain",
          static_cast<double>(snap.progress.ebr_retired_backlog));
  w.Counter("oij_arena_slab_recycles_total",
            "Fully-dead slabs returned to the arena empty pool",
            static_cast<double>(snap.progress.arena_slab_recycles));

  // NUMA placement (src/topo/). The node-count gauge always exports so
  // dashboards can tell "flat machine" from "not scraping"; the per-node
  // and per-joiner series appear only when a placement plan is active.
  w.Gauge("oij_numa_nodes", "NUMA nodes the engine's placement plan spans",
          static_cast<double>(snap.progress.numa_nodes));
  w.Gauge("oij_numa_active",
          "1 while joiners run pinned under a NUMA placement plan",
          snap.progress.numa_active ? 1.0 : 0.0);
  if (snap.progress.numa_active) {
    for (size_t j = 0; j < snap.progress.numa_pin_cpus.size(); ++j) {
      w.Gauge("oij_numa_joiner_cpu",
              "CPU each joiner thread is pinned to (-1 = unpinned)",
              static_cast<double>(snap.progress.numa_pin_cpus[j]),
              {{"joiner", std::to_string(j)}});
    }
    for (size_t n = 0; n < snap.progress.per_node_arena_bytes.size(); ++n) {
      w.Gauge("oij_numa_node_arena_bytes",
              "Arena slab bytes reserved by joiners of each NUMA node",
              static_cast<double>(snap.progress.per_node_arena_bytes[n]),
              {{"node", std::to_string(n)}});
    }
    for (size_t n = 0;
         n < snap.progress.per_node_arena_live_nodes.size(); ++n) {
      w.Gauge("oij_numa_node_arena_live_nodes",
              "Index nodes resident in each NUMA node's arenas",
              static_cast<double>(
                  snap.progress.per_node_arena_live_nodes[n]),
              {{"node", std::to_string(n)}});
    }
    w.Counter("oij_numa_cross_replications_total",
              "Partition replicas the rebalancer placed on a remote node",
              static_cast<double>(snap.progress.numa_cross_replications));
    w.Counter("oij_numa_cross_dispatches_total",
              "Tuple dispatches routed off the partition leader's node",
              static_cast<double>(snap.progress.numa_cross_dispatches));
  }

  // Standing-query catalog (one sample set per query ever registered;
  // removed queries keep exporting with active=0 so their counters do
  // not vanish mid-scrape).
  for (const QueryStatsRow& q : snap.queries) {
    const PrometheusLabels ql = {{"query", q.id}};
    w.Gauge("oij_query_active",
            "1 while the standing query accepts new base tuples",
            q.active ? 1.0 : 0.0, ql);
  }
  for (const QueryStatsRow& q : snap.queries) {
    w.Counter("oij_query_results_total",
              "Join results emitted per standing query",
              static_cast<double>(q.results), {{"query", q.id}});
  }
  for (const QueryStatsRow& q : snap.queries) {
    w.Counter("oij_query_late_total",
              "Lateness-bound violations observed per standing query",
              static_cast<double>(q.late.tuples), {{"query", q.id}});
  }

  // Durability (absent entirely when the engine runs without a WAL).
  if (snap.wal.enabled) {
    const WalStats& wal = snap.wal;
    w.Counter("oij_wal_appended_records_total",
              "Records appended to the write-ahead log",
              static_cast<double>(wal.appended_records));
    w.Counter("oij_wal_appended_bytes",
              "Bytes appended to the write-ahead log",
              static_cast<double>(wal.appended_bytes));
    w.Gauge("oij_wal_synced_records",
            "Appended records known durable; appended - synced bounds "
            "crash loss",
            static_cast<double>(wal.synced_records));
    w.Counter("oij_wal_fsyncs_total", "fsync calls issued by group commit",
              static_cast<double>(wal.fsyncs));
    w.Counter("oij_wal_fsync_failures_total",
              "Injected fsync failures (disk-fault harness)",
              static_cast<double>(wal.fsync_failures));
    w.Counter("oij_wal_short_writes_total",
              "Injected short writes (disk-fault harness)",
              static_cast<double>(wal.short_writes));
    w.Counter("oij_snapshots_total", "Snapshot epochs committed",
              static_cast<double>(wal.snapshots_taken));
    // Omitted until the first snapshot commits: exporting the -1.0
    // "never" sentinel as a real sample reads as a negative age and
    // poisons `oij_snapshot_age_seconds > X` alert rules.
    if (snap.snapshot_age_seconds >= 0.0) {
      w.Gauge("oij_snapshot_age_seconds",
              "Seconds since the last committed snapshot",
              snap.snapshot_age_seconds);
    }
    w.Counter("oij_wal_replay_records",
              "Records replayed through ingest during recovery",
              static_cast<double>(wal.replay_records));
    w.Counter("oij_wal_torn_records_total",
              "Torn or corrupt tail records discarded during recovery",
              static_cast<double>(wal.torn_records));
    w.Gauge("oij_recovery_duration_us",
            "Wall time of the last crash recovery (0 = none ran)",
            static_cast<double>(wal.recovery_duration_us));
  }

  if (snap.run_finished) {
    const RunResult& run = snap.final_run;
    const EngineStats& st = run.stats;
    w.Counter("oij_run_input_tuples_total",
              "Input tuples of the finalized run",
              static_cast<double>(run.tuples));
    w.Counter("oij_run_results_total", "Results of the finalized run",
              static_cast<double>(st.results));
    w.Gauge("oij_run_elapsed_seconds", "Wall time of the finalized run",
            run.elapsed_seconds);
    w.Gauge("oij_run_throughput_tps",
            "Input tuples per second of the finalized run",
            run.throughput_tps);

    w.Histogram("oij_result_latency_us",
                "Result latency (arrival to emit, microseconds)",
                st.latency);
    // Summary gauges alongside the histogram; the Percentile <= max
    // invariant established in the recorder carries through verbatim.
    for (double q : {0.5, 0.9, 0.99}) {
      char qbuf[8];
      std::snprintf(qbuf, sizeof(qbuf), "%g", q);
      w.Gauge("oij_result_latency_quantile_us",
              "Result latency summary quantiles",
              static_cast<double>(st.latency.Percentile(q)),
              {{"quantile", qbuf}});
    }
    w.Gauge("oij_result_latency_max_us", "Maximum observed result latency",
            static_cast<double>(st.latency.max_us()));

    w.Counter("oij_late_tuples_total",
              "Lateness-bound violations by disposition",
              static_cast<double>(st.late.joined),
              {{"disposition", "joined"}});
    w.Counter("oij_late_tuples_total",
              "Lateness-bound violations by disposition",
              static_cast<double>(st.late.dropped),
              {{"disposition", "dropped"}});
    w.Counter("oij_late_tuples_total",
              "Lateness-bound violations by disposition",
              static_cast<double>(st.late.side_channel),
              {{"disposition", "side_channel"}});
    w.Counter("oij_overload_dropped_total",
              "Tuples lost to backpressure",
              static_cast<double>(st.overload_dropped));
    w.Counter("oij_overload_shed_total",
              "Tuples shed by the kShedOldest policy",
              static_cast<double>(st.overload_shed));
    w.Counter("oij_control_lost_total",
              "Watermark/flush punctuations lost to stop/deadline",
              static_cast<double>(st.control_lost));
  }
  return w.Take();
}

std::string RenderStatzJson(const AdminSnapshot& snap) {
  JsonOut j;
  j.Open('{');
  j.Key("state");
  j.String(snap.recovering ? "recovering"
                           : (snap.run_finished ? "finished" : "serving"));
  j.Key("engine");
  j.String(snap.engine_name);
  j.Key("workload");
  j.String(snap.workload_name);
  j.Key("uptime_seconds");
  j.Number(snap.uptime_seconds);

  j.Key("health");
  j.Open('{');
  j.Key("ok");
  j.Bool(snap.health.ok());
  j.Key("status");
  j.String(snap.health.ToString());
  j.Close('}');

  const ServerCounters& c = snap.counters;
  j.Key("server");
  j.Open('{');
  j.Key("connections_accepted");
  j.Number(c.connections_accepted);
  j.Key("connections_open");
  j.Number(c.connections_open);
  j.Key("admin_requests");
  j.Number(c.admin_requests);
  j.Key("bytes_in");
  j.Number(c.bytes_in);
  j.Key("bytes_out");
  j.Number(c.bytes_out);
  j.Key("frames_in");
  j.Number(c.frames_in);
  j.Key("frames_rejected");
  j.Number(c.frames_rejected);
  j.Key("tuples_in");
  j.Number(c.tuples_in);
  j.Key("watermarks_in");
  j.Number(c.watermarks_in);
  j.Key("results_streamed");
  j.Number(c.results_streamed);
  j.Key("subscribers");
  j.Number(c.subscribers);
  j.Key("subscribers_evicted");
  j.Number(c.subscribers_evicted);
  j.Key("watermark_acks");
  j.Number(c.watermark_acks);
  j.Key("hellos_rejected");
  j.Number(c.hellos_rejected);
  j.Close('}');

  j.Key("engine_progress");
  j.Open('{');
  j.Key("accepted_tuples");
  j.Number(snap.progress.pushed);
  j.Key("watermarks");
  j.Number(snap.progress.watermarks);
  j.Key("queue_depths");
  j.Open('[');
  for (size_t d : snap.progress.queue_depths) {
    j.Number(static_cast<uint64_t>(d));
  }
  j.Close(']');
  j.Key("consumed");
  j.Open('[');
  for (uint64_t v : snap.progress.consumed) j.Number(v);
  j.Close(']');
  j.Key("memory");
  j.Open('{');
  j.Key("arena_bytes");
  j.Number(snap.progress.arena_bytes);
  j.Key("arena_live_nodes");
  j.Number(snap.progress.arena_live_nodes);
  j.Key("ebr_retired_backlog");
  j.Number(snap.progress.ebr_retired_backlog);
  j.Key("arena_slab_recycles");
  j.Number(snap.progress.arena_slab_recycles);
  j.Close('}');
  j.Key("numa");
  j.Open('{');
  j.Key("active");
  j.Bool(snap.progress.numa_active);
  j.Key("nodes");
  j.Number(static_cast<uint64_t>(snap.progress.numa_nodes));
  j.Key("pin_cpus");
  j.Open('[');
  for (int cpu : snap.progress.numa_pin_cpus) {
    j.Number(static_cast<int64_t>(cpu));
  }
  j.Close(']');
  j.Key("joiner_node");
  j.Open('[');
  for (uint32_t n : snap.progress.numa_joiner_node) {
    j.Number(static_cast<uint64_t>(n));
  }
  j.Close(']');
  j.Key("per_node_arena_bytes");
  j.Open('[');
  for (uint64_t v : snap.progress.per_node_arena_bytes) j.Number(v);
  j.Close(']');
  j.Key("per_node_arena_live_nodes");
  j.Open('[');
  for (uint64_t v : snap.progress.per_node_arena_live_nodes) j.Number(v);
  j.Close(']');
  j.Key("cross_replications");
  j.Number(snap.progress.numa_cross_replications);
  j.Key("cross_dispatches");
  j.Number(snap.progress.numa_cross_dispatches);
  j.Close('}');
  j.Close('}');

  if (!snap.queries.empty()) {
    j.Key("queries");
    AppendQueryRows(j, snap.queries);
  }

  if (snap.wal.enabled) {
    const WalStats& wal = snap.wal;
    j.Key("wal");
    j.Open('{');
    j.Key("recovering");
    j.Bool(snap.recovering);
    j.Key("appended_records");
    j.Number(wal.appended_records);
    j.Key("appended_bytes");
    j.Number(wal.appended_bytes);
    j.Key("synced_records");
    j.Number(wal.synced_records);
    j.Key("fsyncs");
    j.Number(wal.fsyncs);
    j.Key("fsync_failures");
    j.Number(wal.fsync_failures);
    j.Key("short_writes");
    j.Number(wal.short_writes);
    j.Key("snapshots_taken");
    j.Number(wal.snapshots_taken);
    j.Key("snapshot_records");
    j.Number(wal.snapshot_records);
    j.Key("snapshot_age_seconds");
    if (snap.snapshot_age_seconds >= 0.0) {
      j.Number(snap.snapshot_age_seconds);
    } else {
      j.Null();  // no snapshot yet; -1 would read as a real age
    }
    j.Key("replay_records");
    j.Number(wal.replay_records);
    j.Key("replay_watermarks");
    j.Number(wal.replay_watermarks);
    j.Key("torn_records");
    j.Number(wal.torn_records);
    j.Key("recovery_duration_us");
    j.Number(wal.recovery_duration_us);
    j.Close('}');
  }

  if (snap.run_finished) {
    const RunResult& run = snap.final_run;
    const EngineStats& st = run.stats;
    j.Key("run");
    j.Open('{');
    j.Key("tuples");
    j.Number(run.tuples);
    j.Key("elapsed_seconds");
    j.Number(run.elapsed_seconds);
    j.Key("throughput_tps");
    j.Number(run.throughput_tps);
    j.Key("results");
    j.Number(st.results);
    j.Key("latency_us");
    j.Open('{');
    j.Key("p50");
    j.Number(st.latency.Percentile(0.50));
    j.Key("p90");
    j.Number(st.latency.Percentile(0.90));
    j.Key("p99");
    j.Number(st.latency.Percentile(0.99));
    j.Key("max");
    j.Number(st.latency.max_us());
    j.Key("mean");
    j.Number(st.latency.mean_us());
    j.Close('}');
    j.Key("late");
    j.Open('{');
    j.Key("tuples");
    j.Number(st.late.tuples);
    j.Key("dropped");
    j.Number(st.late.dropped);
    j.Key("side_channel");
    j.Number(st.late.side_channel);
    j.Key("joined");
    j.Number(st.late.joined);
    j.Close('}');
    j.Key("overload");
    j.Open('{');
    j.Key("dropped");
    j.Number(st.overload_dropped);
    j.Key("shed");
    j.Number(st.overload_shed);
    j.Key("control_lost");
    j.Number(st.control_lost);
    j.Close('}');
    j.Key("memory");
    j.Open('{');
    j.Key("pooled");
    j.Bool(st.mem.pooled);
    j.Key("arena_reserved_bytes");
    j.Number(st.mem.arena_reserved_bytes);
    j.Key("arena_live_nodes");
    j.Number(st.mem.arena_live_nodes);
    j.Key("arena_allocations");
    j.Number(st.mem.arena_allocations);
    j.Key("arena_slab_recycles");
    j.Number(st.mem.arena_slab_recycles);
    j.Key("ebr_retired_backlog");
    j.Number(st.mem.ebr_retired_backlog);
    j.Close('}');
    j.Key("numa");
    j.Open('{');
    j.Key("active");
    j.Bool(st.numa_active);
    j.Key("nodes");
    j.Number(static_cast<uint64_t>(st.numa_nodes));
    j.Key("per_node_arena_bytes");
    j.Open('[');
    for (uint64_t v : st.numa_node_arena_bytes) j.Number(v);
    j.Close(']');
    j.Key("per_node_arena_live_nodes");
    j.Open('[');
    for (uint64_t v : st.numa_node_arena_live_nodes) j.Number(v);
    j.Close(']');
    j.Key("cross_replications");
    j.Number(st.numa_cross_replications);
    j.Key("cross_dispatches");
    j.Number(st.numa_cross_dispatches);
    j.Close('}');
    j.Key("warnings");
    j.Open('[');
    for (const std::string& w : st.warnings) j.String(w);
    j.Close(']');
    j.Close('}');
  }
  j.Close('}');
  std::string out = j.Take();
  out += '\n';
  return out;
}

std::string RenderQueriesJson(const std::vector<QueryStatsRow>& queries) {
  JsonOut j;
  j.Open('{');
  j.Key("queries");
  AppendQueryRows(j, queries);
  j.Close('}');
  std::string out = j.Take();
  out += '\n';
  return out;
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
