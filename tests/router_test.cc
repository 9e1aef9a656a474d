// In-process cluster-tier tests: a real OijRouter in front of real
// OijServer backends (and, for the failure-injection cases, scripted
// fake backends speaking the wire protocol). Headline properties:
//
//   * fan-back exactness — the union of results streamed back through
//     the router from two key-partitioned backends equals the
//     policy-aware reference oracle, and the cluster watermark
//     punctuation the router inserts is strictly increasing and never
//     ahead of the min acked backend watermark;
//   * handshake hygiene — a mismatched or misplaced kHello is answered
//     with a clean kError, never a poisoned decoder;
//   * failover — a non-durable backend's keys reroute ring-clockwise to
//     the survivor the moment it drops, and /healthz flips to 503 when
//     no backend is eligible;
//   * sticky replay — a durable-exact backend's keys queue while it is
//     down and exactly the un-acked suffix past its recovered watermark
//     is resent when it returns.
//
// The kill -9 version of the replay property (real WAL, real recovery)
// lives in cluster_integration_test.cc.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/router.h"
#include "core/engine_factory.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "net/socket.h"
#include "net/wire_codec.h"
#include "metrics/stats.h"
#include "server/admin.h"
#include "server/server.h"
#include "stream/generator.h"
#include "stream/presets.h"

namespace oij {
namespace {

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

bool WaitUntil(const std::function<bool()>& pred, int64_t timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// One blocking HTTP/1.0 GET against an admin port.
std::string HttpGet(uint16_t port, const std::string& path, int* code) {
  int fd = -1;
  *code = 0;
  if (!ConnectTcp("127.0.0.1", port, &fd).ok()) return "";
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!SendAll(fd, request.data(), request.size()).ok()) {
    CloseFd(fd);
    return "";
  }
  std::string response;
  char buf[8192];
  int64_t n;
  while ((n = RecvSome(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  CloseFd(fd);
  const size_t sp = response.find(' ');
  if (sp != std::string::npos) *code = std::atoi(response.c_str() + sp + 1);
  const size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

/// Blocking router client with a concurrent reader; beyond DataClient
/// (server_test.cc) it also collects the kHello reply and the cluster
/// kWatermark punctuation the router inserts into subscriptions.
class RouterClient {
 public:
  explicit RouterClient(uint16_t port) {
    const Status s = ConnectTcp("127.0.0.1", port, &fd_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (fd_ >= 0) reader_ = std::thread(&RouterClient::ReadLoop, this);
  }

  ~RouterClient() {
    JoinReader();
    CloseFd(fd_);
  }

  bool Send(const std::string& bytes) {
    return SendAll(fd_, bytes.data(), bytes.size()).ok();
  }

  void JoinReader() {
    if (reader_.joinable()) reader_.join();
  }

  std::vector<JoinResult> results;
  std::vector<Timestamp> watermarks;
  std::vector<HelloInfo> hellos;
  std::string summary;
  std::vector<std::string> errors;
  bool corrupt = false;

 private:
  void ReadLoop() {
    WireDecoder decoder;
    char buf[16384];
    WireFrame frame;
    while (true) {
      const int64_t n = RecvSome(fd_, buf, sizeof(buf));
      if (n <= 0) return;
      decoder.Feed(buf, static_cast<size_t>(n));
      while (true) {
        const WireDecoder::Result r = decoder.Next(&frame);
        if (r == WireDecoder::Result::kNeedMore) break;
        if (r == WireDecoder::Result::kCorrupt) {
          corrupt = true;
          return;
        }
        switch (frame.type) {
          case FrameType::kResult:
            results.push_back(frame.result);
            break;
          case FrameType::kWatermark:
            watermarks.push_back(frame.watermark);
            break;
          case FrameType::kHello:
            hellos.push_back(frame.hello);
            break;
          case FrameType::kSummary:
            summary = frame.text;
            break;
          case FrameType::kError:
            errors.push_back(frame.text);
            break;
          default:
            break;
        }
      }
    }
  }

  int fd_ = -1;
  std::thread reader_;
};

RouterConfig TwoBackendConfig(const OijServer& a, const OijServer& b) {
  RouterConfig rc;
  rc.backends.push_back({"127.0.0.1", a.data_port(), a.admin_port()});
  rc.backends.push_back({"127.0.0.1", b.data_port(), b.admin_port()});
  rc.backoff_base_ms = 20;
  rc.backoff_max_ms = 200;
  rc.seed = 7;
  return rc;
}

// --------------------------------------------------- fan-back exactness

/// Two key-partitioned backends behind the router must reproduce the
/// single-node oracle exactly: every tuple routes to exactly one
/// backend, both see the identical watermark sequence, so the union of
/// their (disjoint) result streams is the reference result set. The
/// cluster watermark punctuation must be strictly increasing and is
/// checked against the min-acked gauge at the end.
TEST(RouterFanBack, TwoBackendUnionMatchesReferenceOracle) {
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = 8'000;
  const std::vector<StreamEvent> events = Generate(workload);

  QuerySpec query;
  query.window = workload.window;
  query.lateness_us = workload.lateness_us;
  query.emit_mode = EmitMode::kWatermark;

  ServerConfig sc;
  sc.engine = EngineKind::kScaleOij;
  sc.query = query;
  sc.options.num_joiners = 2;

  OijServer backend_a(sc);
  OijServer backend_b(sc);
  ASSERT_TRUE(backend_a.Start().ok());
  ASSERT_TRUE(backend_b.Start().ok());

  OijRouter router(TwoBackendConfig(backend_a, backend_b));
  ASSERT_TRUE(router.Start().ok());

  // Both backends must be active before traffic, or early tuples for a
  // still-handshaking durable-unknown backend would fail over.
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_connects >= 2;
  }));

  const uint64_t wm_every = 256;
  {
    RouterClient client(router.data_port());
    std::string batch;
    HelloInfo hello;
    AppendHelloFrame(&batch, hello);
    AppendControlFrame(&batch, FrameType::kSubscribe);
    WatermarkTracker tracker(query.lateness_us);
    uint64_t n = 0;
    bool io_ok = true;
    for (const StreamEvent& ev : events) {
      tracker.Observe(ev.tuple.ts);
      AppendTupleFrame(&batch, ev);
      if (++n % wm_every == 0) {
        AppendWatermarkFrame(&batch, tracker.watermark());
      }
      if (batch.size() >= 32 * 1024) {
        if (!(io_ok = client.Send(batch))) break;
        batch.clear();
      }
    }
    ASSERT_TRUE(io_ok) << "tuple send failed";
    ASSERT_TRUE(client.Send(batch));
    batch.clear();

    // Admin plane mid-run, while both backends are active.
    ASSERT_TRUE(WaitUntil([&] {
      return router.CountersSnapshot().tuples_routed >= events.size();
    }));
    int code = 0;
    HttpGet(router.admin_port(), "/healthz", &code);
    EXPECT_EQ(code, 200) << "healthz with two active backends";
    const std::string statz = HttpGet(router.admin_port(), "/statz", &code);
    EXPECT_EQ(code, 200);
    EXPECT_NE(statz.find("cluster_watermark"), std::string::npos) << statz;
    EXPECT_NE(statz.find("\"backends\""), std::string::npos) << statz;
    EXPECT_NE(statz.find("active"), std::string::npos) << statz;
    const std::string metrics = HttpGet(router.admin_port(), "/metrics", &code);
    EXPECT_EQ(code, 200);
    EXPECT_NE(metrics.find("oij_router_tuples_routed_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("oij_router_backend_acked_watermark"),
              std::string::npos);

    AppendControlFrame(&batch, FrameType::kFinish);
    ASSERT_TRUE(client.Send(batch));
    client.JoinReader();

    EXPECT_FALSE(client.corrupt) << "router sent a malformed frame";
    ASSERT_TRUE(client.errors.empty())
        << "router error: " << client.errors.front();
    ASSERT_EQ(client.hellos.size(), 1u) << "no hello reply";
    EXPECT_TRUE(client.hellos[0].Compatible());
    ASSERT_FALSE(client.summary.empty()) << "no summary frame";
    EXPECT_NE(client.summary.find("cluster run: 2 backend(s)"),
              std::string::npos)
        << client.summary;
    EXPECT_NE(client.summary.find("--- backend 0"), std::string::npos);
    EXPECT_NE(client.summary.find("--- backend 1"), std::string::npos);

    // Cluster watermark punctuation: strictly increasing, and never
    // ahead of the min acked backend watermark (monotone-safety at the
    // emission site; the eject/re-admit cycle is covered in
    // cluster_test.cc).
    for (size_t i = 1; i < client.watermarks.size(); ++i) {
      EXPECT_GT(client.watermarks[i], client.watermarks[i - 1])
          << "cluster watermark regressed at punctuation " << i;
    }
    const RouterCounters rc = router.CountersSnapshot();
    EXPECT_LE(rc.cluster_watermark, rc.min_backend_acked);
    if (!client.watermarks.empty()) {
      EXPECT_EQ(client.watermarks.back(), rc.cluster_watermark);
    }
    EXPECT_EQ(rc.tuples_routed, events.size());
    EXPECT_EQ(rc.tuples_dropped, 0u);
    EXPECT_EQ(rc.tuples_failed_over, 0u);
    EXPECT_GT(rc.watermarks_broadcast, 0u);
    EXPECT_GE(rc.acks_received, rc.watermarks_broadcast);

    // The union of the two disjoint key partitions must equal the
    // single-node policy-aware oracle, result for result.
    std::vector<ReferenceResult> got;
    got.reserve(client.results.size());
    for (const JoinResult& r : client.results) {
      got.push_back({r.base, r.aggregate, r.match_count});
    }
    SortResults(&got);
    std::vector<ReferenceResult> want =
        ReferenceJoinWithPolicy(events, query, wm_every);
    SortResults(&want);
    ASSERT_EQ(got.size(), want.size()) << "fan-back result cardinality";
    size_t mismatches = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].base != want[i].base ||
          got[i].match_count != want[i].match_count ||
          (!std::isnan(want[i].aggregate) &&
           std::abs(got[i].aggregate - want[i].aggregate) > 1e-6)) {
        if (++mismatches <= 3) {
          ADD_FAILURE() << "result " << i << " differs: ts=" << got[i].base.ts
                        << " key=" << got[i].base.key
                        << " got count=" << got[i].match_count
                        << " want count=" << want[i].match_count;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }

  router.Shutdown();
  backend_a.Shutdown();
  backend_b.Shutdown();
}

// ------------------------------------------------------ live admin stats

/// Flattens a JSON document into (path, raw scalar) pairs in document
/// order. Object members join with '.', every array adds "[]", and each
/// member that holds a container is listed too, with an empty value, so
/// an empty array still shows its key.
class JsonFlattener {
 public:
  explicit JsonFlattener(std::string_view text) : s_(text) {
    Value("");
  }
  std::vector<std::pair<std::string, std::string>> entries;

  std::set<std::string> Paths() const {
    std::set<std::string> paths;
    for (const auto& [path, value] : entries) paths.insert(path);
    return paths;
  }
  std::vector<std::string> ValuesAt(const std::string& path) const {
    std::vector<std::string> values;
    for (const auto& [p, v] : entries) {
      if (p == path && !v.empty()) values.push_back(v);
    }
    return values;
  }

 private:
  bool Space() const {
    return std::isspace(static_cast<unsigned char>(s_[i_])) != 0;
  }
  void Ws() {
    while (i_ < s_.size() && Space()) ++i_;
  }
  std::string String() {
    const size_t start = ++i_;
    while (s_[i_] != '"') i_ += s_[i_] == '\\' ? 2 : 1;
    return std::string(s_.substr(start, i_++ - start));
  }
  void Value(const std::string& path) {
    Ws();
    if (s_[i_] == '{') {
      ++i_;
      Ws();
      while (s_[i_] != '}') {
        const std::string key = String();
        Ws();
        ++i_;  // ':'
        const std::string child = path.empty() ? key : path + "." + key;
        Ws();
        if (s_[i_] == '{' || s_[i_] == '[') entries.emplace_back(child, "");
        Value(child);
        Ws();
        if (s_[i_] == ',') ++i_;
        Ws();
      }
      ++i_;
    } else if (s_[i_] == '[') {
      ++i_;
      Ws();
      while (s_[i_] != ']') {
        Value(path + "[]");
        Ws();
        if (s_[i_] == ',') ++i_;
        Ws();
      }
      ++i_;
    } else {
      const size_t start = i_;
      if (s_[i_] == '"') {
        String();
      } else {
        while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
               s_[i_] != ']' && !Space()) {
          ++i_;
        }
      }
      entries.emplace_back(path, std::string(s_.substr(start, i_ - start)));
    }
  }

  std::string_view s_;
  size_t i_ = 0;
};

/// A server snapshot with every section present and every counter set.
AdminSnapshot FullServerSnapshot() {
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.uptime_seconds = 12.5;
  ServerCounters& c = snap.counters;
  c.connections_accepted = 1;
  c.connections_open = 2;
  c.admin_requests = 3;
  c.bytes_in = 4;
  c.bytes_out = 5;
  c.frames_in = 6;
  c.tuples_in = 7;
  c.watermarks_in = 8;
  c.frames_rejected = 9;
  c.results_streamed = 10;
  c.subscribers = 11;
  c.subscribers_evicted = 12;
  c.watermark_acks = 13;
  c.hellos_rejected = 14;
  WatchdogSample& p = snap.progress;
  p.queue_depths = {4, 5};
  p.consumed = {100, 200};
  p.pushed = 300;
  p.watermarks = 17;
  p.overload_dropped = 9;
  p.overload_shed = 2;
  p.control_lost = 1;
  p.mem = MemStats{true, 65536, 120, 130, 2, 1, 5};
  p.numa.active = true;
  p.numa.nodes = 2;
  p.numa.pin_cpus = {0, -1};
  p.numa.joiner_node = {0, 1};
  p.numa.per_node_arena_bytes = {32768, 32768};
  p.numa.per_node_arena_live_nodes = {60, 60};
  p.numa.cross_replications = 3;
  p.numa.cross_dispatches = 4;
  QueryStatsRow main;
  main.id = "main";
  main.results = 50;
  main.late = LateStats{6, 3, 2, 1, 4, 2};
  QueryStatsRow narrow = main;
  narrow.ord = 1;
  narrow.id = "narrow";
  narrow.active = false;
  narrow.results = 20;
  snap.queries = {main, narrow};
  WalStats& wal = snap.wal;
  wal.enabled = true;
  wal.appended_records = 40;
  wal.appended_bytes = 4000;
  wal.synced_records = 39;
  wal.fsyncs = 5;
  wal.fsync_failures = 1;
  wal.short_writes = 1;
  wal.snapshots_taken = 2;
  wal.snapshot_records = 30;
  wal.replay_records = 25;
  wal.replay_watermarks = 3;
  wal.torn_records = 1;
  wal.recovery_duration_us = 900;
  snap.snapshot_age_seconds = 1.5;
  snap.run_finished = true;
  snap.final_run.tuples = 300;
  snap.final_run.elapsed_seconds = 0.5;
  snap.final_run.throughput_tps = 600;
  snap.final_run.stats.results = 70;
  for (int us : {120, 250, 900, 4000}) {
    snap.final_run.stats.latency.Record(us);
  }
  snap.final_run.stats.warnings = {"w1"};
  return snap;
}

/// The sample line `stat` renders for value `i` on /metrics.
std::string SampleLine(const Stat& stat, size_t i) {
  PrometheusLabels labels = stat.labels;
  if (!stat.label.empty()) labels.emplace_back(stat.label, stat.keys[i]);
  std::string line = stat.family;
  if (stat.type == StatType::kHistogram) line += "_count";
  if (!labels.empty()) {
    line += "{";
    for (size_t k = 0; k < labels.size(); ++k) {
      if (k > 0) line += ",";
      line += labels[k].first + "=\"" + EscapeLabelValue(labels[k].second) +
              "\"";
    }
    line += "}";
  }
  const double v = stat.type == StatType::kHistogram
                       ? static_cast<double>(stat.histogram->count())
                       : stat.values[i];
  return line + " " + FormatSampleValue(v);
}

/// What /statz shows for value `i` of `stat`.
std::string JsonValue(const Stat& stat, size_t i) {
  if (stat.type == StatType::kFlag) {
    return stat.values[i] != 0.0 ? "true" : "false";
  }
  if (stat.type == StatType::kHistogram) {
    return FormatSampleValue(static_cast<double>(stat.histogram->count()));
  }
  return std::isnan(stat.values[i]) ? "null"
                                    : FormatSampleValue(stat.values[i]);
}

/// foreachStat: every numeric stat a plane lists renders on /metrics and
/// on /statz, with the same value at its declared path.
void ExpectEveryNumericStatOnBothPages(const StatList& list) {
  const std::string metrics = "\n" + RenderStatsPrometheus(list.stats());
  const JsonFlattener statz(RenderStatsJson(list.stats()));
  for (const Stat& stat : list.stats()) {
    if (stat.type == StatType::kText) continue;
    const size_t n = stat.type == StatType::kHistogram ? 1 : stat.values.size();
    std::vector<std::string> want;
    for (size_t i = 0; i < n; ++i) {
      want.push_back(JsonValue(stat, i));
      if (stat.type != StatType::kHistogram && std::isnan(stat.values[i])) {
        continue;  // absent: no sample
      }
      EXPECT_NE(metrics.find("\n" + SampleLine(stat, i) + "\n"),
                std::string::npos)
          << SampleLine(stat, i) << " missing from /metrics";
    }
    const bool array =
        !stat.label.empty() && stat.path.find("[]") == std::string::npos;
    EXPECT_EQ(statz.ValuesAt(array ? stat.path + "[]" : stat.path), want)
        << stat.path << " on /statz";
  }
}

/// The number after the first `"key":` of a /statz body, as the
/// integration tests read it.
double FirstNumber(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = body.find(needle);
  EXPECT_NE(pos, std::string::npos) << key;
  return pos == std::string::npos
             ? 0.0
             : std::strtod(body.c_str() + pos + needle.size(), nullptr);
}

TEST(AdminStats, EveryServerStatRendersOnBothPages) {
  ExpectEveryNumericStatOnBothPages(ServerStats(FullServerSnapshot()));
}

TEST(AdminStats, ServerPagesKeepEveryFamilyAndKeyPath) {
  // Every Prometheus family and /statz key path the server rendered
  // before /metrics and /statz were declared from one stat list. The
  // final-run memory, numa, late and overload objects are live now and
  // render under engine_progress.
  const AdminSnapshot snap = FullServerSnapshot();
  const std::string server_metrics = RenderPrometheusMetrics(snap);
  for (const char* family :
       {"oij_up", "oij_uptime_seconds", "oij_healthy", "oij_run_finished",
        "oij_recovering", "oij_connections_accepted_total",
        "oij_connections_open", "oij_admin_requests_total",
        "oij_ingest_bytes_total", "oij_egress_bytes_total",
        "oij_frames_total", "oij_frames_rejected_total",
        "oij_ingest_tuples_total", "oij_ingest_watermarks_total",
        "oij_results_streamed_total", "oij_subscribers",
        "oij_subscribers_evicted_total", "oij_watermark_acks_total",
        "oij_hellos_rejected_total", "oij_engine_accepted_tuples_total",
        "oij_engine_watermarks_total", "oij_joiner_queue_depth",
        "oij_joiner_consumed_total", "oij_arena_bytes",
        "oij_arena_live_nodes", "oij_ebr_retired_backlog",
        "oij_arena_slab_recycles_total", "oij_numa_nodes",
        "oij_numa_active", "oij_numa_joiner_cpu",
        "oij_numa_node_arena_bytes", "oij_numa_node_arena_live_nodes",
        "oij_numa_cross_replications_total",
        "oij_numa_cross_dispatches_total", "oij_query_active",
        "oij_query_results_total", "oij_query_late_total",
        "oij_wal_appended_records_total", "oij_wal_appended_bytes",
        "oij_wal_synced_records", "oij_wal_fsyncs_total",
        "oij_wal_fsync_failures_total", "oij_wal_short_writes_total",
        "oij_snapshots_total", "oij_snapshot_age_seconds",
        "oij_wal_replay_records", "oij_wal_torn_records_total",
        "oij_recovery_duration_us", "oij_run_input_tuples_total",
        "oij_run_results_total", "oij_run_elapsed_seconds",
        "oij_run_throughput_tps", "oij_result_latency_us",
        "oij_result_latency_quantile_us", "oij_result_latency_max_us",
        "oij_late_tuples_total", "oij_overload_dropped_total",
        "oij_overload_shed_total", "oij_control_lost_total"}) {
    EXPECT_NE(server_metrics.find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << family;
  }
  const std::set<std::string> server_paths =
      JsonFlattener(RenderStatzJson(snap)).Paths();
  for (const char* path :
       {"state", "engine", "workload", "uptime_seconds", "health.ok",
        "health.status", "server.connections_accepted",
        "server.connections_open", "server.admin_requests",
        "server.bytes_in", "server.bytes_out", "server.frames_in",
        "server.frames_rejected", "server.tuples_in",
        "server.watermarks_in", "server.results_streamed",
        "server.subscribers", "server.subscribers_evicted",
        "server.watermark_acks", "server.hellos_rejected",
        "engine_progress.accepted_tuples", "engine_progress.watermarks",
        "engine_progress.queue_depths", "engine_progress.consumed",
        "engine_progress.memory.arena_bytes",
        "engine_progress.memory.arena_live_nodes",
        "engine_progress.memory.ebr_retired_backlog",
        "engine_progress.memory.arena_slab_recycles",
        "engine_progress.numa.active", "engine_progress.numa.nodes",
        "engine_progress.numa.pin_cpus", "engine_progress.numa.joiner_node",
        "engine_progress.numa.per_node_arena_bytes",
        "engine_progress.numa.per_node_arena_live_nodes",
        "engine_progress.numa.cross_replications",
        "engine_progress.numa.cross_dispatches", "queries[].id",
        "queries[].ord", "queries[].active", "queries[].pre",
        "queries[].fol", "queries[].lateness", "queries[].agg",
        "queries[].emit", "queries[].late_policy", "queries[].results",
        "queries[].late.tuples", "queries[].late.joined",
        "queries[].late.dropped", "queries[].late.side_channel",
        "wal.recovering", "wal.appended_records", "wal.appended_bytes",
        "wal.synced_records", "wal.fsyncs", "wal.fsync_failures",
        "wal.short_writes", "wal.snapshots_taken", "wal.snapshot_records",
        "wal.snapshot_age_seconds", "wal.replay_records",
        "wal.replay_watermarks", "wal.torn_records",
        "wal.recovery_duration_us", "run.tuples", "run.elapsed_seconds",
        "run.throughput_tps", "run.results", "run.latency_us.p50",
        "run.latency_us.p90", "run.latency_us.p99", "run.latency_us.max",
        "run.latency_us.mean", "run.warnings",
        // Formerly run.late, run.overload, run.memory and run.numa.
        "engine_progress.late.tuples", "engine_progress.late.dropped",
        "engine_progress.late.side_channel", "engine_progress.late.joined",
        "engine_progress.overload.dropped", "engine_progress.overload.shed",
        "engine_progress.overload.control_lost",
        "engine_progress.memory.pooled",
        "engine_progress.memory.arena_reserved_bytes",
        "engine_progress.memory.arena_allocations"}) {
    EXPECT_TRUE(server_paths.count(path)) << path;
  }
}

TEST(AdminStats, ServerKeysReadByFirstOccurrenceKeepTheirValues) {
  // Integration tests read /statz keys by their first occurrence.
  const std::string server = RenderStatzJson(FullServerSnapshot());
  EXPECT_EQ(FirstNumber(server, "tuples_in"), 7.0);
  EXPECT_EQ(FirstNumber(server, "appended_records"), 40.0);
  EXPECT_EQ(FirstNumber(server, "synced_records"), 39.0);
  EXPECT_EQ(FirstNumber(server, "results_streamed"), 10.0);
  EXPECT_EQ(FirstNumber(server, "replay_records"), 25.0);
}

/// Every counter sample of a /metrics page, name{labels} -> value: the
/// families typed counter, and the buckets, sum and count of histograms.
std::map<std::string, double> CounterSamples(const std::string& text) {
  std::set<std::string> families;
  std::map<std::string, double> samples;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream type_line(line.substr(7));
      std::string family, type;
      type_line >> family >> type;
      if (type == "counter" || type == "histogram") families.insert(family);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.rfind(' '));
    std::string family = name.substr(0, name.find('{'));
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string sfx = suffix;
      if (family.size() > sfx.size() &&
          family.compare(family.size() - sfx.size(), sfx.size(), sfx) == 0 &&
          families.count(family.substr(0, family.size() - sfx.size()))) {
        family.resize(family.size() - sfx.size());
      }
    }
    if (families.count(family)) {
      samples[name] = std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  return samples;
}

/// A live router in front of two backends. Between two scrapes of a
/// serving backend and of the router, no counter goes down or vanishes;
/// then the router's own stat list is checked as the server's is above.
TEST(AdminStats, LiveRouterWithTwoBackends) {
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = 4'000;
  const std::vector<StreamEvent> events = Generate(workload);

  ServerConfig sc;
  sc.engine = EngineKind::kScaleOij;
  sc.query.window = workload.window;
  sc.query.lateness_us = workload.lateness_us;
  sc.query.emit_mode = EmitMode::kWatermark;
  sc.options.num_joiners = 2;
  OijServer backend_a(sc);
  OijServer backend_b(sc);
  ASSERT_TRUE(backend_a.Start().ok());
  ASSERT_TRUE(backend_b.Start().ok());
  OijRouter router(TwoBackendConfig(backend_a, backend_b));
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_connects >= 2;
  }));

  RouterClient client(router.data_port());
  WatermarkTracker tracker(sc.query.lateness_us);
  auto send = [&](size_t begin, size_t end) {
    std::string batch;
    for (size_t i = begin; i < end; ++i) {
      tracker.Observe(events[i].tuple.ts);
      AppendTupleFrame(&batch, events[i]);
      if ((i + 1) % 256 == 0) {
        AppendWatermarkFrame(&batch, tracker.watermark());
      }
    }
    ASSERT_TRUE(client.Send(batch));
    ASSERT_TRUE(WaitUntil(
        [&] { return router.CountersSnapshot().tuples_routed == end; }));
  };
  auto scrape = [](uint16_t port) {
    int code = 0;
    const std::string text = HttpGet(port, "/metrics", &code);
    EXPECT_EQ(code, 200);
    return CounterSamples(text);
  };

  const size_t half = events.size() / 2;
  send(0, half);
  const auto router_before = scrape(router.admin_port());
  const auto backend_before = scrape(backend_a.admin_port());
  send(half, events.size());
  const auto router_after = scrape(router.admin_port());
  const auto backend_after = scrape(backend_a.admin_port());

  auto expect_monotone = [](const std::map<std::string, double>& before,
                            const std::map<std::string, double>& after) {
    EXPECT_GT(before.size(), 10u);
    for (const auto& [name, value] : before) {
      const auto it = after.find(name);
      ASSERT_NE(it, after.end()) << name << " vanished";
      EXPECT_GE(it->second, value) << name << " went down";
    }
  };
  expect_monotone(router_before, router_after);
  expect_monotone(backend_before, backend_after);
  EXPECT_GT(router_after.at("oij_router_tuples_routed_total"),
            router_before.at("oij_router_tuples_routed_total"));

  // The router's list, read off the loop thread once it has stopped: a
  // router with two backends renders every numeric stat on both pages,
  // keeps every family and key path it rendered before the list, and
  // puts its counters ahead of the per-backend rows that reuse names.
  router.Shutdown();
  const StatList stats = router.AdminStats();
  ExpectEveryNumericStatOnBothPages(stats);
  const std::string router_metrics = RenderStatsPrometheus(stats.stats());
  for (const char* family :
       {"oij_router_tuples_in_total", "oij_router_tuples_routed_total",
        "oij_router_tuples_queued_sticky_total",
        "oij_router_tuples_failed_over_total",
        "oij_router_tuples_dropped_total",
        "oij_router_watermarks_broadcast_total", "oij_router_acks_total",
        "oij_router_results_fanned_total", "oij_router_backend_retries_total",
        "oij_router_replayed_tuples_total",
        "oij_router_replay_dropped_tuples_total",
        "oij_router_clients_stalled_evicted_total",
        "oij_router_subscribers_evicted_total",
        "oij_router_cluster_watermark", "oij_router_clients_open",
        "oij_router_backend_healthy", "oij_router_backend_active",
        "oij_router_backend_acked_watermark",
        "oij_router_backend_replay_buffered_tuples",
        "oij_router_backend_health_probes_total",
        "oij_router_backend_health_failures_total",
        "oij_router_backend_ejections_total",
        "oij_router_backend_readmissions_total"}) {
    EXPECT_NE(router_metrics.find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << family;
  }
  const std::set<std::string> router_paths =
      JsonFlattener(RenderStatsJson(stats.stats())).Paths();
  for (const char* path :
       {"clients_accepted", "clients_open", "clients_stalled_evicted",
        "subscribers", "subscribers_evicted", "tuples_in", "tuples_routed",
        "tuples_queued_sticky", "tuples_failed_over", "tuples_dropped",
        "watermarks_in", "watermarks_broadcast", "watermarks_ignored",
        "acks_received", "results_fanned", "backend_connects",
        "backend_disconnects", "backend_retries", "replayed_tuples",
        "replay_dropped_tuples", "hellos_rejected", "cluster_watermark",
        "min_backend_acked", "run_finished", "backends[].id",
        "backends[].state", "backends[].healthy", "backends[].durable_exact",
        "backends[].acked_watermark", "backends[].replay_buffered_tuples",
        "backends[].replay_dropped_tuples", "backends[].tuples_sent",
        "backends[].watermarks_sent", "backends[].acks",
        "backends[].connects", "backends[].disconnects",
        "backends[].replays"}) {
    EXPECT_TRUE(router_paths.count(path)) << path;
  }
  const std::string json = RenderStatsJson(stats.stats());
  const RouterCounters c = router.CountersSnapshot();
  EXPECT_EQ(FirstNumber(json, "tuples_in"), static_cast<double>(c.tuples_in));
  EXPECT_EQ(FirstNumber(json, "replay_dropped_tuples"),
            static_cast<double>(c.replay_dropped_tuples));
  EXPECT_EQ(FirstNumber(json, "backend_connects"),
            static_cast<double>(c.backend_connects));
  EXPECT_EQ(FirstNumber(json, "results_fanned"),
            static_cast<double>(c.results_fanned));
  EXPECT_EQ(FirstNumber(json, "cluster_watermark"),
            static_cast<double>(c.cluster_watermark));
  EXPECT_EQ(FirstNumber(json, "min_backend_acked"),
            static_cast<double>(c.min_backend_acked));
  backend_a.Shutdown();
  backend_b.Shutdown();
}

// ----------------------------------------------------- handshake hygiene

TEST(RouterHandshake, MismatchedHelloGetsCleanErrorNotDecoderPoison) {
  ServerConfig sc;
  sc.options.num_joiners = 1;
  OijServer backend(sc);
  ASSERT_TRUE(backend.Start().ok());

  RouterConfig rc;
  rc.backends.push_back({"127.0.0.1", backend.data_port(),
                         backend.admin_port()});
  OijRouter router(rc);
  ASSERT_TRUE(router.Start().ok());

  {  // Wrong version: clean kError naming the mismatch, then close.
    RouterClient client(router.data_port());
    std::string bytes;
    HelloInfo bad;
    bad.version = 99;
    AppendHelloFrame(&bytes, bad);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();  // router closes after the error
    EXPECT_FALSE(client.corrupt);
    ASSERT_EQ(client.errors.size(), 1u);
    EXPECT_TRUE(client.hellos.empty());
  }
  {  // Wrong magic: same clean rejection.
    RouterClient client(router.data_port());
    std::string bytes;
    HelloInfo bad;
    bad.magic = 0xDEADBEEF;
    AppendHelloFrame(&bytes, bad);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();
    EXPECT_FALSE(client.corrupt);
    ASSERT_EQ(client.errors.size(), 1u);
  }
  {  // Hello after another frame is a protocol error.
    RouterClient client(router.data_port());
    std::string bytes;
    AppendWatermarkFrame(&bytes, 1);
    HelloInfo hello;
    AppendHelloFrame(&bytes, hello);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();
    EXPECT_FALSE(client.corrupt);
    ASSERT_EQ(client.errors.size(), 1u);
  }
  EXPECT_GE(router.CountersSnapshot().hellos_rejected, 3u);

  {  // A well-formed hello still negotiates: the plane is not wedged.
    RouterClient client(router.data_port());
    std::string bytes;
    HelloInfo hello;
    AppendHelloFrame(&bytes, hello);
    AppendControlFrame(&bytes, FrameType::kFinish);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();
    EXPECT_FALSE(client.corrupt);
    EXPECT_TRUE(client.errors.empty())
        << "unexpected error: " << client.errors.front();
    ASSERT_EQ(client.hellos.size(), 1u);
    EXPECT_TRUE(client.hellos[0].Compatible());
  }

  router.Shutdown();
  backend.Shutdown();
}

// ------------------------------------------------------- fake backends

/// Scripted wire-protocol backend: accepts router connections, answers
/// the hello (optionally advertising kHelloDurableExact and a recovered
/// watermark), acks every watermark, and records what it receives. Lets
/// the failover/replay tests control exactly when a backend dies and
/// with what durable state it returns.
class FakeBackend {
 public:
  FakeBackend(bool durable, Timestamp recovered_wm)
      : durable_(durable), recovered_wm_(recovered_wm) {}

  ~FakeBackend() { Stop(); }

  bool Start(uint16_t port = 0) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener_ < 0) return false;
    const int one = 1;
    ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    if (::listen(listener_, 8) != 0) return false;
    thread_ = std::thread(&FakeBackend::AcceptLoop, this);
    return true;
  }

  /// Kills the listener and any live connection; the router sees an
  /// abrupt disconnect, exactly like a crashed process.
  void Stop() {
    if (listener_ < 0) return;
    stop_.store(true);
    ::shutdown(listener_, SHUT_RDWR);
    const int conn = conn_fd_.exchange(-1);
    if (conn >= 0) ::shutdown(conn, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    CloseFd(listener_);
    listener_ = -1;
  }

  uint16_t port() const { return port_; }

  std::vector<StreamEvent> Tuples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tuples_;
  }
  std::vector<Timestamp> Watermarks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return watermarks_;
  }
  size_t TupleCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tuples_.size();
  }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      conn_fd_.store(fd);
      Serve(fd);
      const int owned = conn_fd_.exchange(-1);
      if (owned >= 0) CloseFd(owned);
    }
  }

  void Serve(int fd) {
    WireDecoder decoder;
    char buf[16384];
    WireFrame frame;
    uint64_t tuples_seen = 0;
    while (!stop_.load()) {
      const int64_t n = RecvSome(fd, buf, sizeof(buf));
      if (n <= 0) return;
      decoder.Feed(buf, static_cast<size_t>(n));
      while (decoder.Next(&frame) == WireDecoder::Result::kFrame) {
        std::string out;
        switch (frame.type) {
          case FrameType::kHello: {
            HelloInfo reply;
            reply.flags = durable_ ? kHelloDurableExact : 0;
            reply.recovered_watermark = recovered_wm_;
            AppendHelloFrame(&out, reply);
            break;
          }
          case FrameType::kTuple: {
            std::lock_guard<std::mutex> lock(mu_);
            tuples_.push_back(frame.event);
            ++tuples_seen;
            break;
          }
          case FrameType::kWatermark: {
            {
              std::lock_guard<std::mutex> lock(mu_);
              watermarks_.push_back(frame.watermark);
            }
            AppendWatermarkAckFrame(&out, frame.watermark, tuples_seen);
            break;
          }
          case FrameType::kFinish:
            AppendTextFrame(&out, FrameType::kSummary, "fake backend run");
            break;
          default:
            break;
        }
        if (!out.empty() && !SendAll(fd, out.data(), out.size()).ok()) return;
      }
    }
  }

  const bool durable_;
  const Timestamp recovered_wm_;
  int listener_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> conn_fd_{-1};

  mutable std::mutex mu_;
  std::vector<StreamEvent> tuples_;
  std::vector<Timestamp> watermarks_;
};

RouterConfig FakePairConfig(uint16_t port_a, uint16_t port_b) {
  RouterConfig rc;
  // Admin ports point at closed ports; the probe interval is an hour and
  // the thresholds are huge so active checking never ejects anyone —
  // these tests exercise the connection state machine, not the checker.
  rc.backends.push_back({"127.0.0.1", port_a, 1});
  rc.backends.push_back({"127.0.0.1", port_b, 1});
  rc.health.interval_ms = 3'600'000;
  rc.health.unhealthy_threshold = 1'000'000;
  rc.connect_timeout_ms = 500;
  rc.backoff_base_ms = 20;
  rc.backoff_max_ms = 100;
  rc.seed = 11;
  return rc;
}

StreamEvent Ev(Timestamp ts, uint64_t key) {
  StreamEvent ev;
  ev.stream = StreamId::kBase;
  ev.tuple.ts = ts;
  ev.tuple.key = key;
  ev.tuple.payload = static_cast<double>(ts);
  return ev;
}

// ---------------------------------------------------------- failover

/// When a non-durable backend drops, its share of the key space must
/// reroute to the ring-clockwise survivor with zero drops, and /healthz
/// must flip to 503 only once *no* backend is eligible.
TEST(RouterFailover, NonDurableBackendLossReroutesToSurvivor) {
  FakeBackend a(/*durable=*/false, kMinTimestamp);
  FakeBackend b(/*durable=*/false, kMinTimestamp);
  ASSERT_TRUE(a.Start());
  ASSERT_TRUE(b.Start());

  OijRouter router(FakePairConfig(a.port(), b.port()));
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_connects >= 2;
  }));

  const uint64_t kKeys = 200;
  RouterClient client(router.data_port());
  {
    std::string batch;
    for (uint64_t k = 0; k < kKeys; ++k) AppendTupleFrame(&batch, Ev(100, k));
    ASSERT_TRUE(client.Send(batch));
  }
  ASSERT_TRUE(
      WaitUntil([&] { return a.TupleCount() + b.TupleCount() >= kKeys; }));
  // A healthy ring splits the key space nontrivially.
  EXPECT_GT(a.TupleCount(), 0u);
  EXPECT_GT(b.TupleCount(), 0u);
  const size_t a_share = a.TupleCount();
  std::set<uint64_t> a_keys;
  for (const StreamEvent& ev : a.Tuples()) a_keys.insert(ev.tuple.key);

  // Kill backend A; the router must notice and reroute A's keys to B.
  a.Stop();
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_disconnects >= 1;
  }));
  {
    std::string batch;
    for (uint64_t k = 0; k < kKeys; ++k) AppendTupleFrame(&batch, Ev(200, k));
    ASSERT_TRUE(client.Send(batch));
  }
  ASSERT_TRUE(WaitUntil([&] { return b.TupleCount() >= kKeys + kKeys - a_share; }));

  const RouterCounters rc = router.CountersSnapshot();
  EXPECT_EQ(rc.tuples_routed, 2 * kKeys);
  EXPECT_EQ(rc.tuples_dropped, 0u);
  EXPECT_EQ(rc.tuples_failed_over, a_share)
      << "every key A owned must have failed over, and only those";
  // B received its own share twice plus A's share once; specifically
  // every key A owned in round one must appear at B in round two.
  std::set<uint64_t> b_round2;
  for (const StreamEvent& ev : b.Tuples()) {
    if (ev.tuple.ts == 200) b_round2.insert(ev.tuple.key);
  }
  for (const uint64_t k : a_keys) {
    EXPECT_TRUE(b_round2.count(k)) << "key " << k << " lost in failover";
  }

  int code = 0;
  HttpGet(router.admin_port(), "/healthz", &code);
  EXPECT_EQ(code, 200) << "one eligible backend is enough for 200";

  // Lose the survivor too: with nobody eligible the router must say so.
  b.Stop();
  ASSERT_TRUE(WaitUntil([&] {
    int c = 0;
    HttpGet(router.admin_port(), "/healthz", &c);
    return c == 503;
  }));

  router.Shutdown();
}

// ------------------------------------------------------ sticky replay

/// A durable-exact backend's keys never fail over: they queue in its
/// replay buffer while it is down, and when it returns advertising its
/// recovered watermark the router resends exactly the un-acked suffix —
/// nothing at or before the cut, everything after it, watermark
/// punctuation included.
TEST(RouterStickyReplay, ResendsExactlyTheUnackedSuffixPastTheCut) {
  FakeBackend first(/*durable=*/true, kMinTimestamp);
  ASSERT_TRUE(first.Start());
  const uint16_t backend_port = first.port();

  RouterConfig rc;
  rc.backends.push_back({"127.0.0.1", backend_port, 1});
  rc.health.interval_ms = 3'600'000;
  rc.health.unhealthy_threshold = 1'000'000;
  rc.connect_timeout_ms = 500;
  rc.backoff_base_ms = 20;
  rc.backoff_max_ms = 100;
  rc.seed = 13;
  OijRouter router(rc);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_connects >= 1;
  }));

  RouterClient client(router.data_port());

  // Two acked segments: tuples ts 1..10 under watermark 10, ts 11..20
  // under watermark 20.
  {
    std::string batch;
    for (Timestamp ts = 1; ts <= 10; ++ts) AppendTupleFrame(&batch, Ev(ts, 1));
    AppendWatermarkFrame(&batch, 10);
    for (Timestamp ts = 11; ts <= 20; ++ts) {
      AppendTupleFrame(&batch, Ev(ts, 1));
    }
    AppendWatermarkFrame(&batch, 20);
    ASSERT_TRUE(client.Send(batch));
  }
  ASSERT_TRUE(WaitUntil([&] {
    const RouterCounters c = router.CountersSnapshot();
    return c.acks_received >= 2 && c.cluster_watermark == 20;
  }));
  EXPECT_EQ(router.CountersSnapshot().min_backend_acked, 20);

  // Backend dies. Its keys must STICK: tuples queue, nothing drops.
  first.Stop();
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_disconnects >= 1;
  }));
  {
    std::string batch;
    for (Timestamp ts = 21; ts <= 30; ++ts) {
      AppendTupleFrame(&batch, Ev(ts, 1));
    }
    AppendWatermarkFrame(&batch, 30);  // sealed into the pending buffer
    for (Timestamp ts = 31; ts <= 40; ++ts) {
      AppendTupleFrame(&batch, Ev(ts, 1));
    }
    ASSERT_TRUE(client.Send(batch));
  }
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().tuples_queued_sticky >= 20;
  }));
  {
    const RouterCounters c = router.CountersSnapshot();
    EXPECT_EQ(c.tuples_failed_over, 0u) << "durable keys must not fail over";
    EXPECT_EQ(c.tuples_dropped, 0u);
    // The cluster watermark must stall, not advance past the dead
    // backend's last ack.
    EXPECT_EQ(c.cluster_watermark, 20);
  }

  // The backend returns on the same address, durable through watermark
  // 20. The router must resend exactly ts 21..40 plus the sealed
  // watermark 30 — and nothing from the acked prefix.
  FakeBackend second(/*durable=*/true, /*recovered_wm=*/20);
  ASSERT_TRUE(second.Start(backend_port));
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().replayed_tuples >= 20;
  }));
  ASSERT_TRUE(WaitUntil([&] { return second.TupleCount() >= 20; }));

  const std::vector<StreamEvent> replayed = second.Tuples();
  ASSERT_EQ(replayed.size(), 20u);
  std::set<Timestamp> seen;
  for (const StreamEvent& ev : replayed) {
    EXPECT_GT(ev.tuple.ts, 20) << "acked tuple replayed (duplicate)";
    seen.insert(ev.tuple.ts);
  }
  for (Timestamp ts = 21; ts <= 40; ++ts) {
    EXPECT_TRUE(seen.count(ts)) << "queued tuple ts=" << ts << " lost";
  }
  // The sealed punctuation travels with the replay, and the ack it
  // triggers lifts the cluster watermark off the stall.
  ASSERT_TRUE(WaitUntil(
      [&] { return router.CountersSnapshot().cluster_watermark >= 30; }));
  const std::vector<Timestamp> wms = second.Watermarks();
  ASSERT_FALSE(wms.empty());
  EXPECT_EQ(wms.front(), 30);
  EXPECT_EQ(router.CountersSnapshot().replay_dropped_tuples, 0u);

  router.Shutdown();
  second.Stop();
}

}  // namespace
}  // namespace oij
