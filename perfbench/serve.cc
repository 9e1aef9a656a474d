// The serving workload: the `default` arrival sequence, pre-encoded as
// wire frames, sent open loop over loopback TCP into an in-process
// OijServer (Scale-OIJ, 2 joiners, watermark emit, WAL on with
// fsync=interval), with one subscriber connection receiving the results.
//
// It is the only workload that runs the wire codec, the event loop,
// egress, WAL append and watermark finalization, so a gain in `net`,
// `server` or `wal` shows here and nowhere else, while a gain inside the
// engine should show here and in `ingest`.
//
// Open loop: batch b of 256 tuples is due when its last tuple is due at
// the offered rate, whether or not the server kept up, and each result's
// latency runs from its base tuple's due time (looked up by (key, ts))
// to the client's receipt of the result frame, on the same monotonic
// clock the server stamps arrival and emit with.

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "harness.h"
#include "net/socket.h"
#include "net/wire_codec.h"
#include "server/server.h"
#include "stream/presets.h"

namespace perfbench {
namespace {

constexpr uint32_t kJoiners = 2;
constexpr int kSetups = 3;
/// About a third of the loopback capacity measured on a 4-core host
/// (1.5-1.8 M tuples/s), so the server is loaded but keeps up.
constexpr uint64_t kOfferedRate = 500'000;
constexpr size_t kBatchTuples = 256;

/// The arrival sequence as wire frames in one buffer, a watermark frame
/// closing every batch.
struct EncodedInput {
  std::string bytes;
  std::vector<size_t> batch_end;         ///< byte offset after batch b
  std::vector<uint64_t> batch_end_tuple; ///< tuple index after batch b
};

EncodedInput Encode(const std::vector<oij::StreamEvent>& events,
                    oij::Timestamp lateness_us) {
  EncodedInput in;
  in.bytes.reserve(events.size() * 32);
  oij::Timestamp max_ts = oij::kMinTimestamp;
  for (size_t i = 0; i < events.size(); ++i) {
    oij::AppendTupleFrame(&in.bytes, events[i]);
    max_ts = std::max(max_ts, events[i].tuple.ts);
    if ((i + 1) % kBatchTuples == 0 || i + 1 == events.size()) {
      oij::AppendWatermarkFrame(&in.bytes, max_ts - lateness_us);
      in.batch_end.push_back(in.bytes.size());
      in.batch_end_tuple.push_back(i + 1);
    }
  }
  return in;
}

/// The subscriber side: decodes result frames and stamps each with the
/// time the bytes carrying it were received.
struct Subscription {
  std::vector<ResultRow> rows;
  bool summary = false;
  bool corrupt = false;
  std::string error;
};

void ReceiveResults(int fd, Subscription* out) {
  oij::WireDecoder decoder;
  std::vector<char> buf(1 << 16);
  oij::WireFrame frame;
  while (true) {
    const int64_t n = oij::RecvSome(fd, buf.data(), buf.size());
    if (n <= 0) return;
    const int64_t now = NowNs();
    decoder.Feed(buf.data(), static_cast<size_t>(n));
    while (true) {
      const oij::WireDecoder::Result r = decoder.Next(&frame);
      if (r == oij::WireDecoder::Result::kNeedMore) break;
      if (r == oij::WireDecoder::Result::kCorrupt) {
        out->corrupt = true;
        return;
      }
      if (frame.type == oij::FrameType::kResult) {
        const oij::JoinResult& res = frame.result;
        out->rows.push_back(ResultRow{res.base.ts, res.base.key,
                                      res.match_count, res.aggregate,
                                      res.arrival_us, res.emit_us, now});
      } else if (frame.type == oij::FrameType::kSummary) {
        out->summary = true;
      } else if (frame.type == oij::FrameType::kError) {
        out->error = frame.text;
      }
    }
  }
}

/// Bounds every blocking receive, so a server that stops answering fails
/// the rep instead of hanging the benchmark.
void SetReceiveTimeout(int fd) {
  timeval timeout{30, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

/// Reads and discards until the peer closes (the finisher's summary).
void DrainUntilClose(int fd) {
  char buf[4096];
  while (oij::RecvSome(fd, buf, sizeof(buf)) > 0) {
  }
}

/// What one rep measured, before any oracle check.
struct ServeRep {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  double rss_mb = 0.0;
  int64_t start_ns = 0;          ///< due time of tuple 0
  uint64_t batches_sent = 0;
  std::vector<double> lag_us;    ///< per batch: send start - due
  double send_ns_mean = 0.0;
  Subscription sub;
  oij::ServerCounters counters;
  oij::RunResult run;
};

ServeRep RunServeRep(const oij::ServerConfig& config,
                     const EncodedInput& input, size_t expected_results,
                     MemoryMeter* memory, SpanLog* spans, uint32_t rep_span,
                     bool traced) {
  ServeRep rep;
  rep.sub.rows.resize(expected_results + expected_results / 8 + 1024);
  rep.sub.rows.clear();  // pages stay resident
  memory->BeginRep();

  const int64_t t0 = NowNs();
  oij::OijServer server(config);
  oij::Status s = server.Start();
  if (!s.ok()) {
    rep.error = "server start failed: " + s.ToString();
    return rep;
  }
  int sub_fd = -1;
  int send_fd = -1;
  s = oij::ConnectTcp("127.0.0.1", server.data_port(), &sub_fd);
  if (!s.ok()) {
    rep.error = "subscriber connect failed: " + s.ToString();
    return rep;  // ~OijServer shuts the server down
  }
  SetReceiveTimeout(sub_fd);
  std::thread receiver(ReceiveResults, sub_fd, &rep.sub);
  // Stops the receiver and closes both sockets on every path out.
  struct Cleanup {
    int* sub_fd;
    int* send_fd;
    std::thread* receiver;
    ~Cleanup() {
      if (*sub_fd >= 0) ::shutdown(*sub_fd, SHUT_RDWR);
      if (receiver->joinable()) receiver->join();
      oij::CloseFd(*sub_fd);
      oij::CloseFd(*send_fd);
    }
  } cleanup{&sub_fd, &send_fd, &receiver};

  std::string subscribe;
  oij::AppendControlFrame(&subscribe, oij::FrameType::kSubscribe);
  s = oij::SendAll(sub_fd, subscribe.data(), subscribe.size());
  // The subscription must be live before the first tuple, or early
  // results would have nobody to go to.
  const int64_t deadline = NowNs() + 5'000'000'000;
  while (s.ok() && server.CountersSnapshot().subscribers == 0 &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (!s.ok() || server.CountersSnapshot().subscribers == 0) {
    rep.error = "subscription did not register";
    return rep;
  }
  s = oij::ConnectTcp("127.0.0.1", server.data_port(), &send_fd);
  if (!s.ok()) {
    rep.error = "sender connect failed: " + s.ToString();
    return rep;
  }
  SetReceiveTimeout(send_fd);
  const int64_t t1 = NowNs();
  rep.setup_s = static_cast<double>(t1 - t0) / 1e9;
  spans->Record(SpanName::kSetup, t0, t1, rep_span);

  // Open loop: batch b goes out when its last tuple is due.
  const double ns_per_tuple = 1e9 / static_cast<double>(kOfferedRate);
  rep.start_ns = NowNs() + 1'000'000;
  rep.lag_us.reserve(input.batch_end.size());
  int64_t send_ns_total = 0;
  size_t begin = 0;
  for (size_t b = 0; b < input.batch_end.size(); ++b) {
    const int64_t due =
        rep.start_ns + static_cast<int64_t>(
                           (input.batch_end_tuple[b] - 1) * ns_per_tuple);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const int64_t send_t0 = NowNs();
    s = oij::SendAll(send_fd, input.bytes.data() + begin,
                     input.batch_end[b] - begin);
    const int64_t send_t1 = NowNs();
    if (!s.ok()) break;
    rep.lag_us.push_back(static_cast<double>(send_t0 - due) / 1e3);
    send_ns_total += send_t1 - send_t0;
    if (traced) spans->Record(SpanName::kSend, send_t0, send_t1, rep_span);
    begin = input.batch_end[b];
    ++rep.batches_sent;
  }
  if (!s.ok()) {
    rep.error = "send failed: " + s.ToString();
    return rep;
  }
  rep.send_ns_mean = rep.batches_sent == 0
                         ? 0.0
                         : static_cast<double>(send_ns_total) /
                               static_cast<double>(rep.batches_sent);

  // kFinish drains and finalizes the engine; the subscriber receives the
  // remaining results and a summary, then the server closes both.
  std::string finish;
  oij::AppendControlFrame(&finish, oij::FrameType::kFinish);
  s = oij::SendAll(send_fd, finish.data(), finish.size());
  if (!s.ok()) {
    rep.error = "finish failed: " + s.ToString();
    return rep;
  }
  DrainUntilClose(send_fd);
  receiver.join();
  const int64_t t2 = NowNs();
  server.Shutdown();
  rep.rss_mb = memory->RepGrowthMb();
  rep.counters = server.CountersSnapshot();
  rep.run = server.FinalRun();
  spans->Record(SpanName::kRun, rep.start_ns, t2, rep_span);
  rep.ok = server.run_finished();
  if (!rep.ok) rep.error = "server never finalized the run";
  return rep;
}

}  // namespace

WorkloadReport RunServe(const RunOptions& opts) {
  WorkloadReport report;
  report.workload = "serve";

  oij::WorkloadSpec spec = oij::DefaultSynthetic();
  spec.total_tuples = opts.smoke ? 4'000 : 250'000;
  spec.seed = opts.seed;
  oij::QuerySpec query;
  query.window = spec.window;
  query.lateness_us = spec.lateness_us;
  query.emit_mode = oij::EmitMode::kWatermark;

  const oij::Status valid = spec.Validate();
  if (!valid.ok()) {
    report.checks_ok = false;
    report.lines.push_back("invalid workload: " + valid.ToString());
    return report;
  }

  // Set-up, several times: generate and encode the input.
  std::vector<double> input_setup_s;
  std::vector<oij::StreamEvent> arrivals;
  EncodedInput input;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = NowNs();
    std::vector<oij::StreamEvent> again = GenerateArrivals(spec);
    input = Encode(again, spec.lateness_us);
    input_setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i > 0 && !SameArrivals(again, arrivals)) {
      report.checks_ok = false;
      report.lines.push_back("arrival sequence is not seed-deterministic");
      return report;
    }
    arrivals = std::move(again);
  }
  Oracle oracle;
  const oij::Status built = Oracle::Exact(arrivals, query, &oracle);
  if (!built.ok()) {
    report.checks_ok = false;
    report.lines.push_back("set-up failed: " + built.ToString());
    return report;
  }
  report.lines.push_back(Format(
      "serve: %zu arrivals in %zu batches (%zu bytes), %zu bases, offered "
      "%llu tuples/s, set-up %.3f s (median of %d)",
      arrivals.size(), input.batch_end.size(), input.bytes.size(),
      oracle.size(), static_cast<unsigned long long>(kOfferedRate),
      Median(input_setup_s), kSetups));

  const std::filesystem::path scratch(opts.scratch_dir);
  std::error_code ec;
  std::filesystem::create_directories(scratch, ec);

  SpanLog spans;
  RepSamples e2e;         // untraced measured reps
  RepSamples traced_e2e;  // traced reps, for the tracing overhead
  RepSamples layers;      // traced reps
  std::vector<double> server_setup_s;
  size_t latency_samples = 0;
  MemoryMeter memory;
  const double ns_per_tuple = 1e9 / static_cast<double>(kOfferedRate);
  for (RepSchedule schedule(opts); schedule.Next();) {
    const size_t r = schedule.index();
    const bool traced = schedule.traced();
    const std::filesystem::path wal_dir =
        scratch / Format("serve-wal-%d-%zu", static_cast<int>(getpid()), r);
    std::filesystem::remove_all(wal_dir, ec);

    oij::ServerConfig config;
    config.engine = oij::EngineKind::kScaleOij;
    config.query = query;
    config.options.num_joiners = kJoiners;
    config.options.durability.wal_dir = wal_dir.string();
    config.options.durability.fsync = oij::FsyncPolicy::kInterval;
    config.workload_name = "serve";

    const uint32_t rep_span = spans.NewId();
    const int64_t rep_t0 = NowNs();
    ServeRep rep = RunServeRep(config, input, oracle.size(), &memory, &spans,
                               rep_span, traced);
    const double stolen = schedule.StolenFraction();
    spans.Record(rep_span, SpanName::kRep, rep_t0, NowNs(), 0);
    std::filesystem::remove_all(wal_dir, ec);
    if (!rep.ok) {
      report.checks_ok = false;
      report.lines.push_back("serve rep failed: " + rep.error);
      break;
    }

    // The clock has stopped: check every result and split its latency
    // into the stages the result frame's stamps delimit.
    std::vector<double> latency, ingress, engine, egress;
    latency.reserve(rep.sub.rows.size());
    ingress.reserve(rep.sub.rows.size());
    engine.reserve(rep.sub.rows.size());
    egress.reserve(rep.sub.rows.size());
    uint64_t matched = 0;
    const Oracle::Outcome outcome = oracle.Verify(
        &rep.sub.rows, [&](const ResultRow& row, const Expected& want) {
          const int64_t due_ns =
              rep.start_ns + static_cast<int64_t>(
                                 static_cast<double>(want.arrival_index) *
                                 ns_per_tuple);
          const int64_t arrival_ns = row.arrival_us * 1000;
          const int64_t emit_ns = row.emit_us * 1000;
          latency.push_back(static_cast<double>(row.recv_ns - due_ns) / 1e3);
          ingress.push_back(static_cast<double>(arrival_ns - due_ns) / 1e3);
          engine.push_back(static_cast<double>(emit_ns - arrival_ns) / 1e3);
          egress.push_back(static_cast<double>(row.recv_ns - emit_ns) / 1e3);
          if (traced && (matched++ & 63) == 0) {
            const uint32_t id = spans.Record(SpanName::kResult, due_ns,
                                             row.recv_ns, rep_span);
            spans.Record(SpanName::kIngress, due_ns, arrival_ns, id);
            spans.Record(SpanName::kEngine, arrival_ns, emit_ns, id);
            spans.Record(SpanName::kEgress, emit_ns, row.recv_ns, id);
          }
        });
    const uint64_t lost = arrivals.size() - rep.counters.tuples_in;
    report.attempted += oracle.size();
    report.failed += outcome.failures() + lost + DroppedOrLate(rep.run.stats) +
                     rep.counters.frames_rejected;
    if (!rep.run.stats.health.ok() || rep.run.stats.control_lost > 0 ||
        rep.sub.corrupt || !rep.sub.error.empty() || !rep.sub.summary ||
        rep.counters.subscribers_evicted > 0) {
      report.checks_ok = false;
      report.lines.push_back(Format(
          "serve rep %zu unhealthy: health=%s corrupt=%d error='%s' "
          "summary=%d evicted=%llu",
          r, rep.run.stats.health.ToString().c_str(), rep.sub.corrupt,
          rep.sub.error.c_str(), rep.sub.summary,
          static_cast<unsigned long long>(rep.counters.subscribers_evicted)));
    }
    const double p50 = Quantile(&latency, 0.50);
    const double p99 = Quantile(&latency, 0.99);
    report.lines.push_back(Format(
        "serve rep %zu%s%s: achieved %.0f of %llu tuples/s, latency p50 "
        "%.1f us p99 %.1f us (%zu samples), sender lag p99 %.1f us, server "
        "set-up %.2f ms, rss +%.1f MB, host steal %.2f%%, missing %llu wrong "
        "%llu extra %llu lost %llu",
        r, schedule.warmup() ? " (warm-up)" : "", traced ? " (traced)" : "",
        rep.run.throughput_tps,
        static_cast<unsigned long long>(kOfferedRate), p50, p99,
        latency.size(), Quantile(&rep.lag_us, 0.99), rep.setup_s * 1e3,
        rep.rss_mb, stolen * 100,
        static_cast<unsigned long long>(outcome.missing),
        static_cast<unsigned long long>(outcome.wrong),
        static_cast<unsigned long long>(outcome.extra),
        static_cast<unsigned long long>(lost)));

    if (schedule.warmup()) continue;
    if (!traced) {
      e2e.Add({{"throughput_tps", rep.run.throughput_tps},
               {"latency_p50_us", p50},
               {"latency_p99_us", p99}},
              stolen);
      latency_samples += latency.size();
      server_setup_s.push_back(rep.setup_s);
      continue;
    }
    traced_e2e.Add({{"latency_p50_us", p50}}, stolen);
    std::map<std::string, double> layer;
    layer["mem.rep_rss_growth_mb"] = rep.rss_mb;
    const double ingress_p50 = Quantile(&ingress, 0.50);
    const double engine_p50 = Quantile(&engine, 0.50);
    const double egress_p50 = Quantile(&egress, 0.50);
    layer["serve.ingress_p50_us"] = ingress_p50;
    layer["serve.ingress_p99_us"] = Quantile(&ingress, 0.99);
    layer["serve.engine_p50_us"] = engine_p50;
    layer["serve.engine_p99_us"] = Quantile(&engine, 0.99);
    layer["serve.egress_p50_us"] = egress_p50;
    layer["serve.egress_p99_us"] = Quantile(&egress, 0.99);
    layer["net.send_ns_per_batch"] = rep.send_ns_mean;
    layer["loadgen.lag_p99_us"] = Quantile(&rep.lag_us, 0.99);
    const auto& c = rep.counters;
    const auto d = [](uint64_t v) { return static_cast<double>(v); };
    layer["server.bytes_in_per_tuple"] =
        c.tuples_in == 0 ? 0.0 : d(c.bytes_in) / d(c.tuples_in);
    layer["server.bytes_out_per_result"] =
        c.results_streamed == 0 ? 0.0
                                : d(c.bytes_out) / d(c.results_streamed);
    layer["server.frames_rejected"] = d(c.frames_rejected);
    layer["server.subscribers_evicted"] = d(c.subscribers_evicted);
    const oij::WalStats& wal = rep.run.stats.wal;
    layer["wal.bytes_per_tuple"] =
        rep.run.stats.input_tuples == 0
            ? 0.0
            : d(wal.appended_bytes) / d(rep.run.stats.input_tuples);
    layer["wal.fsyncs"] = d(wal.fsyncs);
    layer["wal.unsynced_records"] = d(
        wal.appended_records -
        std::min(wal.synced_records, wal.appended_records));
    // Reconciliation: stage medians against the end-to-end median.
    layer["trace.unexplained_frac"] =
        p50 == 0.0 ? 0.0
                   : 1.0 - (ingress_p50 + engine_p50 + egress_p50) / p50;
    AddEngineStatsMetrics(rep.run.stats, rep.run.elapsed_seconds, kJoiners,
                          &layer);
    layers.Add(layer, stolen);
  }

  std::map<std::string, double> untraced = e2e.Medians();
  untraced["peak_rss_mb"] = memory.PeakMb();
  report.lines.push_back(Format(
      "serve: medians over the %zu of %zu reps least disturbed by host "
      "steal: latency p50 %.1f us, p99 %.1f us (%zu samples in all reps)",
      e2e.used(), e2e.reps(), untraced["latency_p50_us"],
      untraced["latency_p99_us"], latency_samples));
  if (opts.trace) {
    report.metrics = layers.Medians();
    // Open loop: tracing shows as latency, not as throughput.
    report.metrics["trace.overhead_frac"] =
        untraced["latency_p50_us"] == 0.0
            ? 0.0
            : traced_e2e.Medians()["latency_p50_us"] /
                      untraced["latency_p50_us"] -
                  1.0;
    if (!opts.spans_path.empty() && !spans.Write(opts.spans_path)) {
      report.lines.push_back("could not write spans to " + opts.spans_path);
    }
  } else {
    report.metrics = std::move(untraced);
    report.metrics["setup_s"] = Median(input_setup_s) + Median(server_setup_s);
  }
  return report;
}

}  // namespace perfbench
