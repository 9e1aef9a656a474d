#include <gtest/gtest.h>

#include "core/engine_factory.h"
#include "core/pipeline.h"
#include "core/run_summary.h"
#include "stream/presets.h"

namespace oij {
namespace {

TEST(PipelineTest, EndToEndUnthrottledRun) {
  WorkloadSpec w = DefaultSynthetic();
  w.total_tuples = 50'000;
  QuerySpec q;
  q.window = w.window;
  q.lateness_us = w.lateness_us;
  q.emit_mode = EmitMode::kEager;

  CountingSink sink;
  EngineOptions options;
  options.num_joiners = 2;
  auto engine = CreateEngine(EngineKind::kScaleOij, q, options, &sink);
  WorkloadGenerator gen(w);
  const RunResult run = RunPipeline(engine.get(), &gen);

  EXPECT_EQ(run.tuples, w.total_tuples);
  EXPECT_GT(run.throughput_tps, 0.0);
  EXPECT_GT(run.elapsed_seconds, 0.0);
  EXPECT_EQ(run.stats.input_tuples, w.total_tuples);
  // Roughly half the tuples are base tuples, each yielding one result.
  EXPECT_NEAR(static_cast<double>(run.stats.results),
              static_cast<double>(w.total_tuples) * 0.5,
              static_cast<double>(w.total_tuples) * 0.05);
  EXPECT_EQ(sink.count(), run.stats.results);
  EXPECT_GT(run.stats.latency.count(), 0u);
}

TEST(PipelineTest, PacedRunApproximatesArrivalRate) {
  WorkloadSpec w = DefaultSynthetic();
  w.total_tuples = 40'000;
  w.pace_rate_per_sec = 200'000;  // ~0.2 s run
  QuerySpec q;
  q.window = w.window;
  q.lateness_us = w.lateness_us;
  q.emit_mode = EmitMode::kEager;

  NullSink sink;
  EngineOptions options;
  options.num_joiners = 2;
  auto engine = CreateEngine(EngineKind::kKeyOij, q, options, &sink);
  WorkloadGenerator gen(w);
  const RunResult run = RunPipeline(engine.get(), &gen);
  EXPECT_EQ(run.tuples, w.total_tuples);
  // Pacing keeps throughput near (and never much above) the target rate.
  EXPECT_LT(run.throughput_tps, 250'000.0);
  EXPECT_GT(run.elapsed_seconds, 0.15);
}

TEST(PipelineTest, AllEnginesSurviveTheRealWorkloadShapes) {
  // Shrunk versions of Workloads A-D through every engine: smoke-level
  // integration across the full preset grid.
  for (WorkloadSpec w : RealWorkloads()) {
    w.total_tuples = 20'000;
    w.pace_rate_per_sec = 0;  // unthrottled for test speed
    QuerySpec q;
    q.window = w.window;
    q.lateness_us = w.lateness_us;
    q.emit_mode = EmitMode::kEager;
    for (EngineKind kind :
         {EngineKind::kKeyOij, EngineKind::kScaleOij,
          EngineKind::kSplitJoin, EngineKind::kSharedState}) {
      NullSink sink;
      EngineOptions options;
      options.num_joiners = 2;
      auto engine = CreateEngine(kind, q, options, &sink);
      WorkloadGenerator gen(w);
      const RunResult run = RunPipeline(engine.get(), &gen);
      EXPECT_EQ(run.tuples, w.total_tuples)
          << "workload " << w.name << " engine " << EngineKindName(kind);
      EXPECT_GT(run.stats.results, 0u)
          << "workload " << w.name << " engine " << EngineKindName(kind);
    }
  }
}

TEST(PipelineTest, CpuUtilizationCollected) {
  WorkloadSpec w = DefaultSynthetic();
  w.total_tuples = 30'000;
  QuerySpec q;
  q.window = w.window;
  q.lateness_us = w.lateness_us;
  q.emit_mode = EmitMode::kEager;
  NullSink sink;
  EngineOptions options;
  options.num_joiners = 2;
  options.collect_cpu_util = true;
  options.cpu_util_interval_ns = 10'000'000;  // 10 ms
  auto engine = CreateEngine(EngineKind::kScaleOij, q, options, &sink);
  WorkloadGenerator gen(w);
  const RunResult run = RunPipeline(engine.get(), &gen);
  ASSERT_EQ(run.stats.utilization.size(), 2u);
  for (const auto& series : run.stats.utilization) {
    EXPECT_FALSE(series.empty());
    for (double u : series) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0);
    }
  }
}

// ----------------------------------------------------------- run summary

TEST(RunSummaryTest, HumanUnits) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1'500), "1.5K");
  EXPECT_EQ(HumanCount(2'500'000), "2.50M");
  EXPECT_EQ(HumanCount(3'000'000'000.0), "3.00G");
  EXPECT_EQ(HumanRate(120'000), "120.0K/s");
  EXPECT_EQ(HumanDurationUs(500), "500us");
  EXPECT_EQ(HumanDurationUs(1'500), "1.50ms");
  EXPECT_EQ(HumanDurationUs(2'000'000), "2.00s");
}

TEST(RunSummaryTest, SummarizeRunMentionsKeyNumbers) {
  WorkloadSpec w = DefaultSynthetic();
  w.total_tuples = 10'000;
  QuerySpec q;
  q.window = w.window;
  q.lateness_us = w.lateness_us;
  q.emit_mode = EmitMode::kEager;
  NullSink sink;
  EngineOptions options;
  options.num_joiners = 1;
  auto engine = CreateEngine(EngineKind::kKeyOij, q, options, &sink);
  WorkloadGenerator gen(w);
  const RunResult run = RunPipeline(engine.get(), &gen);
  const std::string summary = SummarizeRun("test", run);
  EXPECT_NE(summary.find("[test]"), std::string::npos);
  EXPECT_NE(summary.find("throughput"), std::string::npos);
  EXPECT_NE(summary.find("latency"), std::string::npos);
  EXPECT_NE(summary.find("effectiveness"), std::string::npos);
}

}  // namespace
}  // namespace oij
