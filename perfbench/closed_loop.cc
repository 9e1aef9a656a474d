// The two in-process, closed-loop workloads: one caller replays a fully
// generated arrival sequence through RunPipelineFrom as fast as the
// engine's rings accept it.
//
//   ingest  the `default` preset under watermark emit. Windows hold about
//           five matches, so fixed per-tuple costs dominate (driver gate,
//           route, stage, ring hop, index insert and evict, emit): the
//           workload on which the driver thread is the bottleneck.
//   scan    the preset-A shape (u=5, |w|=1 s, l=1 s, ~3,800 matches a
//           window) under eager emit. Every arriving base seeks the
//           time-travel index and aggregates a large window, so the index
//           read path and the aggregate path dominate while the driver
//           idles. Same index as `ingest`, opposite side of it.

#include <chrono>
#include <optional>
#include <thread>

#include "core/engine_factory.h"
#include "core/pipeline.h"
#include "harness.h"
#include "stream/presets.h"
#include "stream/trace.h"

namespace perfbench {
namespace {

constexpr uint32_t kJoiners = 2;
constexpr int kSetups = 3;

/// Times TraceSource::Next, 1 call in 64.
class TracedSource {
 public:
  TracedSource(oij::TraceSource* inner, SpanLog* spans, uint32_t parent)
      : inner_(inner), spans_(spans), parent_(parent) {}

  bool Next(oij::StreamEvent* out) {
    if (!timer_.Sample()) return inner_->Next(out);
    const int64_t t0 = NowNs();
    const bool more = inner_->Next(out);
    const int64_t t1 = NowNs();
    timer_.Add(t1 - t0);
    spans_->Record(SpanName::kNext, t0, t1, parent_);
    return more;
  }

  oij::Timestamp watermark() const { return inner_->watermark(); }
  const LayerTimer& timer() const { return timer_; }

 private:
  oij::TraceSource* inner_;
  SpanLog* spans_;
  uint32_t parent_;
  LayerTimer timer_;
};

/// JoinEngine decorator handed to RunPipelineFrom on traced reps: times
/// Push (1 in 64), every SignalWatermark and Finish, and samples ring
/// occupancy through SampleProgress() every millisecond between Start
/// and Finish.
class TracedEngine final : public oij::JoinEngine {
 public:
  TracedEngine(oij::JoinEngine* inner, const oij::EngineOptions& options,
               SpanLog* spans, uint32_t parent)
      : inner_(inner),
        ring_capacity_(options.queue_capacity),
        batch_(options.batch_size),
        spans_(spans),
        parent_(parent) {}
  ~TracedEngine() override { StopSampler(); }

  TracedEngine(const TracedEngine&) = delete;
  TracedEngine& operator=(const TracedEngine&) = delete;

  oij::Status Start() override {
    const oij::Status s = inner_->Start();
    if (s.ok()) sampler_ = std::thread([this] { SampleRings(); });
    return s;
  }

  void Push(const oij::StreamEvent& event, int64_t arrival_us) override {
    if (!push_.Sample()) {
      inner_->Push(event, arrival_us);
      return;
    }
    const int64_t t0 = NowNs();
    inner_->Push(event, arrival_us);
    const int64_t t1 = NowNs();
    push_.Add(t1 - t0);
    spans_->Record(SpanName::kPush, t0, t1, parent_);
  }

  void SignalWatermark(oij::Timestamp watermark) override {
    const int64_t t0 = NowNs();
    inner_->SignalWatermark(watermark);
    const int64_t t1 = NowNs();
    watermark_.AddExact(t1 - t0);
    spans_->Record(SpanName::kWatermark, t0, t1, parent_);
  }

  void FlushPending() override { inner_->FlushPending(); }
  void Sync() override { inner_->Sync(); }

  oij::EngineStats Finish() override {
    StopSampler();
    const int64_t t0 = NowNs();
    oij::EngineStats stats = inner_->Finish();
    const int64_t t1 = NowNs();
    finish_ns_ = t1 - t0;
    spans_->Record(SpanName::kFinish, t0, t1, parent_);
    return stats;
  }

  oij::WatchdogSample SampleProgress() const override {
    return inner_->SampleProgress();
  }
  oij::Status Health() const override { return inner_->Health(); }
  std::string_view name() const override { return inner_->name(); }

  const LayerTimer& push() const { return push_; }
  const LayerTimer& watermark() const { return watermark_; }
  int64_t finish_ns() const { return finish_ns_; }
  double ring_fill_mean() const {
    return ring_samples_ == 0 ? 0.0 : ring_fill_sum_ / ring_samples_;
  }
  double ring_full_frac() const {
    return ring_samples_ == 0
               ? 0.0
               : static_cast<double>(ring_full_) / ring_samples_;
  }

 private:
  void SampleRings() {
    while (!stop_.load(std::memory_order_acquire)) {
      const oij::WatchdogSample sample = inner_->SampleProgress();
      for (const size_t depth : sample.queue_depths) {
        ring_fill_sum_ += static_cast<double>(depth) / ring_capacity_;
        // Full: the next staged batch would not fit, so Push blocks.
        if (depth + batch_ > ring_capacity_) ++ring_full_;
        ++ring_samples_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void StopSampler() {
    stop_.store(true, std::memory_order_release);
    if (sampler_.joinable()) sampler_.join();
  }

  oij::JoinEngine* inner_;
  const size_t ring_capacity_;
  const size_t batch_;
  SpanLog* spans_;
  const uint32_t parent_;
  LayerTimer push_;
  LayerTimer watermark_{0xD1B54A32D192ED03ULL};
  int64_t finish_ns_ = 0;

  // Written by the sampler thread, read after it is joined.
  double ring_fill_sum_ = 0.0;
  uint64_t ring_full_ = 0;
  uint64_t ring_samples_ = 0;
  std::atomic<bool> stop_{false};
  std::thread sampler_;  // last: it uses the members above
};

struct ClosedLoopWorkload {
  const char* name;
  oij::WorkloadSpec spec;
  oij::EmitMode emit;
};

WorkloadReport RunClosedLoop(const ClosedLoopWorkload& w,
                             const RunOptions& opts) {
  WorkloadReport report;
  report.workload = w.name;

  // The query comes from the workload, window and lateness included.
  oij::QuerySpec query;
  query.window = w.spec.window;
  query.lateness_us = w.spec.lateness_us;
  query.emit_mode = w.emit;
  oij::EngineOptions options;
  options.num_joiners = kJoiners;

  const oij::Status valid = w.spec.Validate();
  if (!valid.ok()) {
    report.checks_ok = false;
    report.lines.push_back("invalid workload: " + valid.ToString());
    return report;
  }

  // Set-up: generate the arrival sequence several times (it must come
  // out identical), then build the oracle, which is not set-up cost.
  std::vector<double> gen_s;
  std::vector<oij::StreamEvent> arrivals;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = NowNs();
    std::vector<oij::StreamEvent> again = GenerateArrivals(w.spec);
    gen_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i > 0 && !SameArrivals(again, arrivals)) {
      report.checks_ok = false;
      report.lines.push_back("arrival sequence is not seed-deterministic");
      return report;
    }
    arrivals = std::move(again);
  }
  Oracle oracle;
  const int64_t oracle_t0 = NowNs();
  const oij::Status built =
      w.emit == oij::EmitMode::kWatermark
          ? Oracle::Exact(arrivals, query, &oracle)
          : Oracle::EagerSandwich(arrivals, query, w.spec.disorder_bound_us,
                                  &oracle);
  if (!built.ok()) {
    report.checks_ok = false;
    report.lines.push_back("set-up failed: " + built.ToString());
    return report;
  }
  report.lines.push_back(Format(
      "%s: %zu arrivals, %zu bases, generated in %.3f s (median of %d), "
      "oracle in %.3f s",
      w.name, arrivals.size(), oracle.size(), Median(gen_s), kSetups,
      static_cast<double>(NowNs() - oracle_t0) / 1e9));

  SpanLog spans;
  RepSamples e2e;         // untraced measured reps
  RepSamples traced_e2e;  // traced reps, for the tracing overhead
  RepSamples layers;      // traced reps
  std::vector<double> engine_setup_s;
  size_t latency_samples = 0;
  MemoryMeter memory;
  for (RepSchedule schedule(opts); schedule.Next();) {
    const size_t rep = schedule.index();
    const bool traced = schedule.traced();
    std::vector<oij::StreamEvent> input = arrivals;  // the source consumes it
    ResultLog log(kJoiners, oracle.size() * 3 / 4 + 1024);
    memory.BeginRep();

    const uint32_t rep_span = spans.NewId();
    const int64_t t0 = NowNs();
    auto engine =
        oij::CreateEngine(oij::EngineKind::kScaleOij, query, options, &log);
    oij::TraceSource source(std::move(input), w.spec.lateness_us);
    const int64_t t1 = NowNs();
    oij::RunResult run;
    std::optional<TracedEngine> traced_engine;
    std::optional<TracedSource> traced_source;
    if (traced) {
      traced_engine.emplace(engine.get(), options, &spans, rep_span);
      traced_source.emplace(&source, &spans, rep_span);
      run = oij::RunPipelineFrom(&*traced_engine, &*traced_source, 0);
    } else {
      run = oij::RunPipelineFrom(engine.get(), &source, 0);
    }
    const int64_t t2 = NowNs();
    const double stolen = schedule.StolenFraction();
    const double rss_mb = memory.RepGrowthMb();
    // Construction plus Start(): everything before the first Push.
    const double setup_s =
        static_cast<double>(t2 - t0) / 1e9 - run.elapsed_seconds;
    spans.Record(SpanName::kSetup, t0, t1, rep_span);
    spans.Record(SpanName::kRun,
                 t2 - static_cast<int64_t>(run.elapsed_seconds * 1e9), t2,
                 rep_span);
    spans.Record(rep_span, SpanName::kRep, t0, t2, 0);
    if (traced) {
      const TracedEngine& te = *traced_engine;
      const LayerTimer& next = traced_source->timer();
      const double tuples = static_cast<double>(run.tuples);
      std::map<std::string, double> layer;
      layer["stream.next_ns"] = next.MeanNs();
      layer["join.push_ns"] = te.push().MeanNs();
      layer["join.watermark_ns"] = te.watermark().MeanNs();
      layer["join.finish_ms"] = te.finish_ns() / 1e6;
      layer["join.ring_fill_mean"] = te.ring_fill_mean();
      layer["join.ring_full_frac"] = te.ring_full_frac();
      layer["mem.rep_rss_growth_mb"] = rss_mb;
      // Reconciliation: the driver thread's per-tuple budget (source,
      // push, amortized watermarks, and the final drain inside the
      // measured window) against the measured time per tuple.
      const double per_tuple_ns = run.elapsed_seconds * 1e9 / tuples;
      const double explained_ns =
          (next.MeanNs() * next.calls() + te.push().MeanNs() * tuples +
           te.watermark().MeanNs() * te.watermark().calls() +
           te.finish_ns()) /
          tuples;
      layer["trace.unexplained_frac"] = 1.0 - explained_ns / per_tuple_ns;
      AddEngineStatsMetrics(run.stats, run.elapsed_seconds, kJoiners, &layer);
      layers.Add(layer, stolen);
      traced_e2e.Add({{"throughput_tps", run.throughput_tps}}, stolen);
    }
    traced_source.reset();
    traced_engine.reset();
    engine.reset();

    // The clock has stopped: check every result.
    std::vector<ResultRow> rows = log.Take();
    const Oracle::Outcome outcome = oracle.Verify(&rows);
    const uint64_t lost =
        DroppedOrLate(run.stats) + (arrivals.size() - run.tuples);
    report.attempted += oracle.size();
    report.failed += outcome.failures() + lost;
    if (!run.stats.health.ok() || run.stats.control_lost > 0) {
      report.checks_ok = false;
      report.lines.push_back("unhealthy run: " + run.stats.health.ToString());
    }
    std::vector<double> latency;
    latency.reserve(rows.size());
    for (const ResultRow& row : rows) {
      latency.push_back(static_cast<double>(row.emit_us - row.arrival_us));
    }
    const double p50 = Quantile(&latency, 0.50);
    const double p99 = Quantile(&latency, 0.99);
    report.lines.push_back(Format(
        "%s rep %zu%s%s: %.0f tuples/s over %.3f s, result latency p50 "
        "%.1f us p99 %.1f us (%zu samples), engine set-up %.2f ms, rss +%.1f "
        "MB, host steal %.2f%%, missing %llu wrong %llu extra %llu "
        "dropped/late %llu",
        w.name, rep, schedule.warmup() ? " (warm-up)" : "",
        traced ? " (traced)" : "", run.throughput_tps, run.elapsed_seconds, p50, p99, latency.size(),
        setup_s * 1e3, rss_mb, stolen * 100,
        static_cast<unsigned long long>(outcome.missing),
        static_cast<unsigned long long>(outcome.wrong),
        static_cast<unsigned long long>(outcome.extra),
        static_cast<unsigned long long>(lost)));
    if (!traced && !schedule.warmup()) {
      e2e.Add({{"throughput_tps", run.throughput_tps},
               {"latency_p50_us", p50},
               {"latency_p99_us", p99}},
              stolen);
      engine_setup_s.push_back(setup_s);
      latency_samples += latency.size();
    }
  }

  std::map<std::string, double> untraced = e2e.Medians();
  untraced["peak_rss_mb"] = memory.PeakMb();
  report.lines.push_back(Format(
      "%s: medians over the %zu of %zu reps least disturbed by host steal: "
      "latency p50 %.1f us, p99 %.1f us (%zu samples in all reps)",
      w.name, e2e.used(), e2e.reps(), untraced["latency_p50_us"],
      untraced["latency_p99_us"], latency_samples));
  if (opts.trace) {
    report.metrics = layers.Medians();
    report.metrics["trace.overhead_frac"] =
        1.0 - traced_e2e.Medians()["throughput_tps"] /
                  untraced["throughput_tps"];
    if (!opts.spans_path.empty() && !spans.Write(opts.spans_path)) {
      report.lines.push_back("could not write spans to " + opts.spans_path);
    }
  } else {
    report.metrics = std::move(untraced);
    report.metrics["setup_s"] = Median(gen_s) + Median(engine_setup_s);
  }
  return report;
}

}  // namespace

WorkloadReport RunIngest(const RunOptions& opts) {
  ClosedLoopWorkload w{"ingest", oij::DefaultSynthetic(),
                       oij::EmitMode::kWatermark};
  w.spec.total_tuples = opts.smoke ? 4'000 : 2'000'000;
  w.spec.seed = opts.seed;
  return RunClosedLoop(w, opts);
}

WorkloadReport RunScan(const RunOptions& opts) {
  ClosedLoopWorkload w{"scan", oij::WorkloadA(), oij::EmitMode::kEager};
  w.spec.pace_rate_per_sec = 0;  // closed loop: unpaced
  w.spec.total_tuples = opts.smoke ? 4'000 : 400'000;
  w.spec.seed = opts.seed;
  return RunClosedLoop(w, opts);
}

}  // namespace perfbench
