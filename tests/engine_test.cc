#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/engine_factory.h"
#include "join/finalize_driver.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "stream/generator.h"

namespace oij {
namespace {

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

struct EngineRun {
  std::vector<ReferenceResult> results;
  EngineStats stats;
};

/// Feeds a materialized arrival sequence through an engine with periodic
/// punctuations, exactly as the pipeline would.
EngineRun RunOverEvents(EngineKind kind, const std::vector<StreamEvent>& events,
                        const QuerySpec& spec, EngineOptions options,
                        uint64_t wm_every = 256) {
  CollectingSink sink;
  auto engine = CreateEngine(kind, spec, options, &sink);
  EXPECT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(spec.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % wm_every == 0) {
      engine->SignalWatermark(tracker.watermark());
    }
  }
  EngineRun run;
  run.stats = engine->Finish();
  for (const JoinResult& r : sink.TakeResults()) {
    run.results.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&run.results);
  return run;
}

void ExpectResultsEqual(const std::vector<ReferenceResult>& got,
                        const std::vector<ReferenceResult>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label << ": result cardinality";
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].base != want[i].base ||
        got[i].match_count != want[i].match_count ||
        (!std::isnan(want[i].aggregate) &&
         std::abs(got[i].aggregate - want[i].aggregate) > 1e-6)) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << label << ": result " << i << " differs: base ts="
                      << got[i].base.ts << " key=" << got[i].base.key
                      << " got(count=" << got[i].match_count
                      << ", agg=" << got[i].aggregate << ") want(count="
                      << want[i].match_count << ", agg="
                      << want[i].aggregate << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

WorkloadSpec TestWorkload(uint64_t seed, uint64_t keys = 8,
                          Timestamp disorder = 50) {
  WorkloadSpec w;
  w.num_keys = keys;
  w.window = IntervalWindow{400, 0};
  w.lateness_us = disorder;
  w.disorder_bound_us = disorder;
  w.event_rate_per_sec = 1'000'000;  // integer us spacing: unique ts
  w.total_tuples = 30'000;
  w.probe_fraction = 0.5;
  w.seed = seed;
  return w;
}

QuerySpec TestQuery(EmitMode mode, AggKind agg = AggKind::kSum,
                    Timestamp lateness = 50, IntervalWindow window = {400,
                                                                      0}) {
  QuerySpec q;
  q.window = window;
  q.lateness_us = lateness;
  q.agg = agg;
  q.emit_mode = mode;
  return q;
}

/// Eager mode under disorder misses only probes that arrive after their
/// base tuple; the generator bounds those to ts in (end - disorder,
/// end]. Hence every eager result is sandwiched between the exact
/// aggregate of the full window and that of the window with its last
/// `disorder` microseconds removed.
void ExpectSandwiched(const std::vector<StreamEvent>& events,
                      const QuerySpec& q, Timestamp disorder,
                      const EngineRun& run) {
  auto full = ReferenceJoin(events, q);
  SortResults(&full);
  // Lower bound: probes in [start, end - disorder - 1] can never be
  // missed (they cannot arrive after the base tuple).
  std::unordered_map<Key, std::vector<Timestamp>> probe_ts;
  for (const auto& e : events) {
    if (e.stream == StreamId::kProbe) {
      probe_ts[e.tuple.key].push_back(e.tuple.ts);
    }
  }
  for (auto& [key, ts] : probe_ts) std::sort(ts.begin(), ts.end());
  auto lower_ref = [&](const Tuple& base) -> uint64_t {
    const std::vector<Timestamp>& ts = probe_ts[base.key];
    const auto lo = std::lower_bound(ts.begin(), ts.end(),
                                     q.window.start_for(base.ts));
    const auto hi = std::upper_bound(
        ts.begin(), ts.end(), q.window.end_for(base.ts) - disorder - 1);
    return hi > lo ? static_cast<uint64_t>(hi - lo) : 0;
  };

  ASSERT_EQ(run.results.size(), full.size());
  uint64_t got_total = 0;
  uint64_t full_total = 0;
  for (size_t i = 0; i < run.results.size(); ++i) {
    ASSERT_EQ(run.results[i].base, full[i].base);
    ASSERT_LE(run.results[i].match_count, full[i].match_count)
        << "eager must never over-count";
    ASSERT_GE(run.results[i].match_count, lower_ref(run.results[i].base))
        << "eager missed a probe outside the disorder bound";
    got_total += run.results[i].match_count;
    full_total += full[i].match_count;
  }
  // The aggregate deficit is a small fraction: only probes inside the
  // final `disorder` microseconds of a window can be missed, and only
  // when they actually arrive after the base tuple.
  ASSERT_GT(full_total, 0u);
  EXPECT_GT(static_cast<double>(got_total) / static_cast<double>(full_total),
            0.95);
}

// ------------------------------------------------ exactness: watermark mode

/// Every engine except the intentionally sloppy OpenMLDB-like baseline
/// must be exact under bounded disorder in watermark mode. Parameters:
/// (engine, joiners, seed).
class WatermarkExactnessTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, int, int>> {};

TEST_P(WatermarkExactnessTest, MatchesReferenceUnderDisorder) {
  const auto [kind, joiners, seed] = GetParam();
  const WorkloadSpec w = TestWorkload(seed);
  const QuerySpec q = TestQuery(EmitMode::kWatermark);
  const auto events = Generate(w);
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);

  EngineOptions options;
  options.num_joiners = static_cast<uint32_t>(joiners);
  const auto run = RunOverEvents(kind, events, q, options);
  ExpectResultsEqual(run.results, expected,
                     std::string(EngineKindName(kind)) + "/j" +
                         std::to_string(joiners));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, WatermarkExactnessTest,
    ::testing::Combine(::testing::Values(EngineKind::kKeyOij,
                                         EngineKind::kScaleOij,
                                         EngineKind::kSplitJoin),
                       ::testing::Values(1, 3, 4),
                       ::testing::Values(11, 12)),
    [](const auto& info) {
      std::string name(EngineKindName(std::get<0>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_j" + std::to_string(std::get<1>(info.param)) +
             "_s" + std::to_string(std::get<2>(info.param));
    });

// --------------------------------------------------- exactness: eager mode

/// With an in-order stream (disorder 0, unique timestamps), eager mode is
/// exact for every engine, including the OpenMLDB-like baseline on a
/// single worker.
class EagerExactnessTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, int>> {};

TEST_P(EagerExactnessTest, MatchesReferenceInOrder) {
  const auto [kind, joiners] = GetParam();
  WorkloadSpec w = TestWorkload(21, /*keys=*/8, /*disorder=*/0);
  w.lateness_us = 0;
  const QuerySpec q = TestQuery(EmitMode::kEager, AggKind::kSum, 0);
  const auto events = Generate(w);
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);

  EngineOptions options;
  options.num_joiners = static_cast<uint32_t>(joiners);
  const auto run = RunOverEvents(kind, events, q, options);
  ExpectResultsEqual(run.results, expected,
                     std::string(EngineKindName(kind)));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EagerExactnessTest,
    ::testing::Values(std::make_tuple(EngineKind::kKeyOij, 4),
                      std::make_tuple(EngineKind::kScaleOij, 4),
                      std::make_tuple(EngineKind::kSplitJoin, 3),
                      std::make_tuple(EngineKind::kSharedState, 1)),
    [](const auto& info) {
      std::string name(EngineKindName(std::get<0>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_j" + std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------- operators and window shapes

class OperatorExactnessTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(OperatorExactnessTest, ScaleOijExactForEveryOperator) {
  const AggKind agg = GetParam();
  const WorkloadSpec w = TestWorkload(31);
  const QuerySpec q = TestQuery(EmitMode::kWatermark, agg);
  const auto events = Generate(w);
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);

  EngineOptions options;
  options.num_joiners = 3;
  const auto run =
      RunOverEvents(EngineKind::kScaleOij, events, q, options);
  ExpectResultsEqual(run.results, expected,
                     std::string(AggKindName(agg)));
}

INSTANTIATE_TEST_SUITE_P(AllAggs, OperatorExactnessTest,
                         ::testing::Values(AggKind::kSum, AggKind::kCount,
                                           AggKind::kAvg, AggKind::kMin,
                                           AggKind::kMax),
                         [](const auto& info) {
                           return std::string(AggKindName(info.param));
                         });

TEST(EngineShapeTest, FollowingWindowExact) {
  const WorkloadSpec w = TestWorkload(41);
  QuerySpec q = TestQuery(EmitMode::kWatermark);
  q.window = IntervalWindow{200, 150};
  const auto events = Generate(w);
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij,
                          EngineKind::kSplitJoin}) {
    EngineOptions options;
    options.num_joiners = 2;
    const auto run = RunOverEvents(kind, events, q, options);
    ExpectResultsEqual(run.results, expected,
                       std::string(EngineKindName(kind)) + "+fol");
  }
}

TEST(EngineShapeTest, LargeLatenessExact) {
  WorkloadSpec w = TestWorkload(51);
  w.lateness_us = 5000;
  w.disorder_bound_us = 5000;
  QuerySpec q = TestQuery(EmitMode::kWatermark, AggKind::kSum, 5000);
  const auto events = Generate(w);
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    EngineOptions options;
    options.num_joiners = 4;
    const auto run = RunOverEvents(kind, events, q, options);
    ExpectResultsEqual(run.results, expected,
                       std::string(EngineKindName(kind)) + "+lateness");
  }
}

TEST(EngineShapeTest, SingleKeyEverythingColocates) {
  const WorkloadSpec w = TestWorkload(61, /*keys=*/1);
  const QuerySpec q = TestQuery(EmitMode::kWatermark);
  const auto events = Generate(w);
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij,
                          EngineKind::kSplitJoin}) {
    EngineOptions options;
    options.num_joiners = 4;
    const auto run = RunOverEvents(kind, events, q, options);
    ExpectResultsEqual(run.results, expected,
                       std::string(EngineKindName(kind)) + "+1key");
  }
}

// --------------------------------------------- Scale-OIJ ablation variants

class ScaleAblationTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(ScaleAblationTest, ExactWithAnyOptimizationSubset) {
  const auto [dynamic_schedule, incremental] = GetParam();
  const WorkloadSpec w = TestWorkload(71, /*keys=*/4);
  const QuerySpec q = TestQuery(EmitMode::kWatermark);
  const auto events = Generate(w);
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);

  EngineOptions options;
  options.num_joiners = 4;
  options.dynamic_schedule = dynamic_schedule;
  options.incremental_agg = incremental;
  options.rebalance_interval_events = 2048;
  const auto run = RunOverEvents(EngineKind::kScaleOij, events, q, options);
  ExpectResultsEqual(run.results, expected, "scale-ablation");
}

INSTANTIATE_TEST_SUITE_P(Matrix, ScaleAblationTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()),
                         [](const auto& info) {
                           return std::string(std::get<0>(info.param)
                                                  ? "dyn"
                                                  : "static") +
                                  (std::get<1>(info.param) ? "_inc"
                                                           : "_full");
                         });

// ----------------------------------------------------- behavioural checks

TEST(EngineBehaviourTest, SharedStateEmitsPerBaseTuple) {
  // Multi-worker OpenMLDB-like runs are approximate but must still emit
  // exactly one result per base tuple.
  const WorkloadSpec w = TestWorkload(81);
  const QuerySpec q = TestQuery(EmitMode::kEager);
  const auto events = Generate(w);
  size_t bases = 0;
  for (const auto& e : events) {
    if (e.stream == StreamId::kBase) ++bases;
  }
  EngineOptions options;
  options.num_joiners = 4;
  const auto run =
      RunOverEvents(EngineKind::kSharedState, events, q, options);
  EXPECT_EQ(run.results.size(), bases);
}

TEST(EngineBehaviourTest, EvictionBoundsStateGrowth) {
  // A long run with a small window must evict: peak buffered tuples stay
  // far below the probe count.
  WorkloadSpec w = TestWorkload(91);
  w.total_tuples = 100'000;
  const QuerySpec q = TestQuery(EmitMode::kWatermark);
  const auto events = Generate(w);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    EngineOptions options;
    options.num_joiners = 2;
    const auto run = RunOverEvents(kind, events, q, options);
    EXPECT_GT(run.stats.evicted_tuples, 10'000u)
        << EngineKindName(kind) << ": eviction never ran";
    EXPECT_LT(run.stats.peak_buffered_tuples, 20'000u)
        << EngineKindName(kind) << ": state grew unboundedly";
  }
}

TEST(EngineBehaviourTest, ScaleOijBuffersOneWindowPlusLateness) {
  // No read goes below the oldest pending window start, so Scale-OIJ's
  // read floor trails it by one window, not by a second one kept for
  // subtract-scans: the index holds about lateness plus one window of
  // probes (plus a punctuation interval), well under 1.5 windows. One
  // joiner: with more, the floor is the slowest joiner's, and how far
  // the joiners drift apart depends on thread scheduling.
  const Timestamp pre = 20'000;
  WorkloadSpec w = TestWorkload(171);
  w.window = IntervalWindow{pre, 0};
  w.total_tuples = 200'000;
  const QuerySpec q = TestQuery(EmitMode::kWatermark, AggKind::kSum,
                                w.lateness_us, {pre, 0});
  const auto events = Generate(w);

  EngineOptions options;
  options.num_joiners = 1;
  const auto run = RunOverEvents(EngineKind::kScaleOij, events, q, options);
  const double probes_per_us =
      w.probe_fraction * static_cast<double>(w.event_rate_per_sec) / 1e6;
  EXPECT_GT(run.stats.evicted_tuples, 0u);
  EXPECT_LT(static_cast<double>(run.stats.peak_buffered_tuples),
            probes_per_us * (static_cast<double>(w.lateness_us) + 1.5 * pre));
}

TEST(EngineBehaviourTest, KeyOijVisitsOutOfWindowDataUnderLateness) {
  // The defining inefficiency (Fig 7): with large lateness, Key-OIJ's
  // effectiveness decays while Scale-OIJ's stays at 1.
  WorkloadSpec w = TestWorkload(101);
  w.lateness_us = 4000;  // 10x the window
  w.disorder_bound_us = 4000;
  const QuerySpec q = TestQuery(EmitMode::kWatermark, AggKind::kSum, 4000);
  const auto events = Generate(w);

  EngineOptions options;
  options.num_joiners = 2;
  // This test characterizes the *per-base* scan profile (Eq. 1); the
  // columnar batch path shares one gather across a key-group, which
  // redefines visited/effectiveness. Differential correctness of that
  // path is covered by col_batch_test.
  options.columnar_min_run = UINT32_MAX;
  const auto key = RunOverEvents(EngineKind::kKeyOij, events, q, options);
  options.incremental_agg = false;  // isolate the index effect
  const auto scale =
      RunOverEvents(EngineKind::kScaleOij, events, q, options);

  EXPECT_LT(key.stats.Effectiveness(), 0.5);
  EXPECT_GT(scale.stats.Effectiveness(), 0.99);
  EXPECT_GT(key.stats.visited, 3 * scale.stats.visited);
}

TEST(EngineBehaviourTest, IncrementalReducesVisitsOnLargeWindows) {
  WorkloadSpec w = TestWorkload(111, /*keys=*/4);
  w.window = IntervalWindow{20'000, 0};  // 50x overlap between windows
  const QuerySpec q =
      TestQuery(EmitMode::kWatermark, AggKind::kSum, 50, {20'000, 0});
  const auto events = Generate(w);

  EngineOptions options;
  options.num_joiners = 2;
  // Per-base path only: each base, a key-group of one, gathers just the
  // delta above its key's resident window; the recompute arm regathers
  // every window whole.
  options.columnar_min_run = UINT32_MAX;
  options.incremental_agg = true;
  const auto inc = RunOverEvents(EngineKind::kScaleOij, events, q, options);
  options.incremental_agg = false;
  const auto full = RunOverEvents(EngineKind::kScaleOij, events, q, options);

  // Same results...
  ExpectResultsEqual(inc.results, full.results, "inc-vs-full");
  // ...but far fewer tuples touched.
  EXPECT_LT(inc.stats.visited, full.stats.visited / 5);
}

/// Scale-OIJ on the `default` shape (100 keys, 2 joiners, ~5 bases of
/// each key per punctuation, around the default columnar_min_run) with window
/// [ts - pre, ts], incremental aggregation on and then off. The results
/// of the two runs must be equal.
std::pair<EngineRun, EngineRun> RunIncAndRecompute(Timestamp pre) {
  WorkloadSpec w = TestWorkload(151, /*keys=*/100, /*disorder=*/100);
  w.window = IntervalWindow{pre, 0};
  w.total_tuples = 100'000;
  const QuerySpec q =
      TestQuery(EmitMode::kWatermark, AggKind::kSum, 100, {pre, 0});
  const auto events = Generate(w);

  EngineOptions options;
  options.num_joiners = 2;
  const uint64_t wm_every = 1024;
  options.incremental_agg = true;
  auto inc = RunOverEvents(EngineKind::kScaleOij, events, q, options, wm_every);
  options.incremental_agg = false;
  auto full =
      RunOverEvents(EngineKind::kScaleOij, events, q, options, wm_every);
  ExpectResultsEqual(inc.results, full.results, "inc-vs-full");
  return {std::move(inc), std::move(full)};
}

TEST(EngineBehaviourTest, IncrementalKeepsColumnarShareOnSmallWindows) {
  // |w| = 1000 us, ~5 matches a window. A columnar group takes
  // invertible windows from prefix sums at O(1) per base, so incremental
  // aggregation must not keep bases away from the group.
  const auto [inc, full] = RunIncAndRecompute(1000);
  ASSERT_GT(full.stats.columnar_bases, 0u);
  EXPECT_GE(static_cast<double>(inc.stats.columnar_bases),
            0.9 * static_cast<double>(full.stats.columnar_bases));
}

TEST(EngineBehaviourTest, IncrementalGathersOnlyDeltasOnLargeWindows) {
  // |w| = 20 ms, ~100 matches a window. Groups and single bases alike
  // extend their key's resident window by the delta above its end, where
  // the recompute arm regathers each union window whole.
  const auto [inc, full] = RunIncAndRecompute(20'000);
  // Over 1/2 if groups regathered their union windows.
  EXPECT_LT(inc.stats.visited, full.stats.visited / 3);
}

TEST(EngineBehaviourTest, PerBaseResidentWindowsExactOnSkewedPopulations) {
  // Per-base finalizes over resident key windows of a few to hundreds of
  // probes: Zipf keys put per-key window populations far apart, so
  // trims, compactions and restarts of sparse and dense keys interleave;
  // sum takes prefix sums and max the monotonic deque over the same
  // populations.
  const Timestamp disorder = 80;
  WorkloadSpec w = TestWorkload(161, /*keys=*/50, disorder);
  w.window = IntervalWindow{1000, 0};
  w.key_distribution = KeyDistribution::kZipf;
  w.zipf_theta = 1.0;
  const auto events = Generate(w);

  EngineOptions options;
  options.num_joiners = 2;
  options.columnar_min_run = UINT32_MAX;  // per-base path only
  for (AggKind agg : {AggKind::kSum, AggKind::kMax}) {
    SCOPED_TRACE(std::string(AggKindName(agg)));
    const QuerySpec wq =
        TestQuery(EmitMode::kWatermark, agg, disorder, {1000, 0});
    auto expected = ReferenceJoin(events, wq);
    SortResults(&expected);
    const auto [fewest, most] = std::minmax_element(
        expected.begin(), expected.end(), [](const auto& a, const auto& b) {
          return a.match_count < b.match_count;
        });
    // The populations must span sparse and dense keys for this test to
    // bite.
    ASSERT_LT(fewest->match_count, 8u);
    ASSERT_GT(most->match_count, 64u);
    ExpectResultsEqual(
        RunOverEvents(EngineKind::kScaleOij, events, wq, options).results,
        expected, "watermark");

    const QuerySpec eq = TestQuery(EmitMode::kEager, agg, disorder, {1000, 0});
    ExpectSandwiched(events, eq, disorder,
                     RunOverEvents(EngineKind::kScaleOij, events, eq, options));
  }
}

TEST(EngineBehaviourTest, DynamicScheduleBalancesFewKeys) {
  // 2 keys on 4 joiners: Key-OIJ leaves half the joiners idle; Scale-OIJ's
  // dynamic schedule spreads the load (Fig 13a/c).
  WorkloadSpec w = TestWorkload(121, /*keys=*/2);
  w.total_tuples = 60'000;
  const QuerySpec q = TestQuery(EmitMode::kWatermark);
  const auto events = Generate(w);

  EngineOptions options;
  options.num_joiners = 4;
  options.rebalance_interval_events = 4096;
  const auto key = RunOverEvents(EngineKind::kKeyOij, events, q, options);
  const auto scale =
      RunOverEvents(EngineKind::kScaleOij, events, q, options);

  EXPECT_GT(key.stats.ActualUnbalancedness(), 0.8)
      << "key-partitioning should be badly skewed with 2 keys";
  EXPECT_LT(scale.stats.ActualUnbalancedness(),
            key.stats.ActualUnbalancedness() / 2);
  EXPECT_GT(scale.stats.rebalances, 0u);
}

TEST(EngineBehaviourTest, EagerApproximationIsSandwiched) {
  // The sandwich must hold on every finalize path: per-base finalizes
  // (columnar_min_run = UINT32_MAX) and columnar groups, prefix-sum and
  // deque aggregates, one and two joiners.
  const Timestamp disorder = 80;
  WorkloadSpec w = TestWorkload(141, /*keys=*/4, disorder);
  const auto events = Generate(w);

  for (AggKind agg : {AggKind::kCount, AggKind::kMin}) {
    const QuerySpec q = TestQuery(EmitMode::kEager, agg, disorder);
    for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
      for (uint32_t joiners : {1u, 2u}) {
        for (bool columnar : {true, false}) {
          SCOPED_TRACE(std::string(EngineKindName(kind)) + " " +
                       std::string(AggKindName(agg)) + " j" +
                       std::to_string(joiners) +
                       (columnar ? " columnar" : " per-base"));
          EngineOptions options;
          options.num_joiners = joiners;
          if (!columnar) options.columnar_min_run = UINT32_MAX;
          ExpectSandwiched(events, q, disorder,
                           RunOverEvents(kind, events, q, options));
        }
      }
    }
  }
}

TEST(BurstFinalizerTest, FinalizesOnShortPopOrAtCapacity) {
  BurstFinalizer burst(/*chunk=*/64, /*capacity=*/256);
  // Full chunks below the ring's capacity keep the burst open.
  EXPECT_FALSE(burst.AfterPop(64));
  EXPECT_FALSE(burst.AfterPop(64));
  EXPECT_TRUE(burst.owed());
  // A short pop means the ring ran dry: the burst ends.
  EXPECT_TRUE(burst.AfterPop(10));
  EXPECT_FALSE(burst.owed());
  // The count restarted: three full chunks stay below capacity, the
  // fourth reaches it.
  EXPECT_FALSE(burst.AfterPop(64));
  EXPECT_FALSE(burst.AfterPop(64));
  EXPECT_FALSE(burst.AfterPop(64));
  EXPECT_TRUE(burst.AfterPop(64));
  EXPECT_FALSE(burst.owed());
  EXPECT_FALSE(burst.AfterPop(64));
  // A finalize outside AfterPop (a barrier event) restarts the count.
  burst.Finalized();
  EXPECT_FALSE(burst.owed());
  EXPECT_FALSE(burst.AfterPop(64));
  EXPECT_FALSE(burst.AfterPop(64));
  EXPECT_FALSE(burst.AfterPop(64));
  EXPECT_TRUE(burst.AfterPop(64));
}

TEST(BurstFinalizerTest, RingSmallerThanChunkFinalizesEveryPop) {
  // A ring holding fewer events than one chunk can never fill a pop.
  BurstFinalizer burst(/*chunk=*/64, /*capacity=*/16);
  EXPECT_TRUE(burst.AfterPop(16));
  EXPECT_TRUE(burst.AfterPop(1));
}

TEST(PendingRunsTest, ReleasesReadyPrefixesPerKeyInTsOrder) {
  // Random arrivals with disorder up to lateness and frequent ts ties,
  // interleaved with takes under non-decreasing thresholds, against a
  // multimap model (equal keys keep insertion order): the same bases
  // come out, each key's in ts order with ties in arrival order, and the
  // heap top is always the oldest pending ts.
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(0x9e4d + seed);
    const uint64_t keys = 1 + rng() % 64;
    const Timestamp lateness = static_cast<Timestamp>(rng() % 50);
    const IntervalWindow window{static_cast<Timestamp>(rng() % 100),
                                static_cast<Timestamp>(rng() % 20)};
    PendingRuns runs;
    std::map<Key, std::multimap<Timestamp, int64_t>> model;
    Timestamp clock = 0;
    Timestamp threshold = kMinTimestamp;
    int64_t arrival = 0;
    auto expect_oldest = [&] {
      Timestamp oldest = kMaxTimestamp;
      for (const auto& [key, bases] : model) {
        if (!bases.empty()) oldest = std::min(oldest, bases.begin()->first);
      }
      EXPECT_EQ(runs.OldestTs(), oldest);
      EXPECT_EQ(runs.empty(), oldest == kMaxTimestamp);
    };
    for (int step = 0; step < 2000; ++step) {
      if (rng() % 8 != 0) {
        clock += static_cast<Timestamp>(rng() % 3);
        const Timestamp ts =
            clock - static_cast<Timestamp>(rng() % (lateness + 1));
        const Key key = rng() % keys;
        runs.Push(Tuple{ts, key, 0.0}, ++arrival);
        model[key].emplace(ts, arrival);
      } else {
        threshold = std::max(threshold,
                             clock - static_cast<Timestamp>(rng() % 40));
        std::map<Key, std::vector<int64_t>> taken;
        runs.TakeReady(window, [&](Key) { return threshold; },
                       [&](Key key, const PendingBase* bases, size_t n) {
                         EXPECT_TRUE(taken[key].empty())
                             << "key " << key << " taken twice in one drain";
                         for (size_t i = 0; i < n; ++i) {
                           EXPECT_EQ(bases[i].tuple.key, key);
                           taken[key].push_back(bases[i].arrival_us);
                         }
                       });
        for (auto& [key, bases] : model) {
          std::vector<int64_t> want;
          while (!bases.empty() &&
                 window.end_for(bases.begin()->first) <= threshold) {
            want.push_back(bases.begin()->second);
            bases.erase(bases.begin());
          }
          ASSERT_EQ(taken[key], want) << "key " << key << " step " << step;
        }
      }
      expect_oldest();
    }
    runs.TakeReady(window, [](Key) { return kMaxTimestamp; },
                   [](Key, const PendingBase*, size_t) {});
    EXPECT_TRUE(runs.empty());
  }
}

TEST(PendingRunsTest, SnapshotKeepsEachSlotsMultiplicity) {
  // Two arrivals of the same tuple are two bases, each owed a result;
  // snapshot replay fans every base out to all queries, so the snapshot
  // holds each tuple as often as the one slot holding it most.
  struct Slot {
    PendingRuns pending;
  };
  const Tuple b{10, 1, 2.5};
  const Tuple c{20, 2, 1.0};
  std::vector<Slot> slots(2);
  slots[0].pending.Push(b, 1);
  slots[0].pending.Push(c, 2);
  slots[0].pending.Push(b, 3);
  slots[1].pending.Push(c, 2);
  slots[1].pending.Push(b, 1);
  std::vector<StreamEvent> out;
  AppendPendingBases(slots, &out);
  std::vector<Tuple> got;
  for (const StreamEvent& ev : out) {
    EXPECT_EQ(ev.stream, StreamId::kBase);
    got.push_back(ev.tuple);
  }
  EXPECT_EQ(got, (std::vector<Tuple>{b, b, c}));
}

TEST(EngineBehaviourTest, SmallDrainsGroupPerKey) {
  // One watermark releases 12 bases, 4 for each of 3 keys. The columnar
  // bar applies per key-group, so a drain this small still finalizes
  // every key through the columnar kernels.
  std::vector<StreamEvent> events;
  StreamEvent ev;
  ev.stream = StreamId::kProbe;
  for (Timestamp ts = 0; ts < 100; ++ts) {
    ev.tuple = Tuple{ts, static_cast<Key>(ts % 3), static_cast<double>(ts)};
    events.push_back(ev);
  }
  ev.stream = StreamId::kBase;
  for (Timestamp ts = 100; ts < 112; ++ts) {
    ev.tuple = Tuple{ts, static_cast<Key>(ts % 3), 1.0};
    events.push_back(ev);
  }
  const QuerySpec q =
      TestQuery(EmitMode::kWatermark, AggKind::kSum, 0, {50, 0});
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);
  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    SCOPED_TRACE(std::string(EngineKindName(kind)));
    EngineOptions options;
    options.num_joiners = 1;
    CollectingSink sink;
    auto engine = CreateEngine(kind, q, options, &sink);
    ASSERT_TRUE(engine->Start().ok());
    for (const StreamEvent& e : events) engine->Push(e, MonotonicNowUs());
    engine->SignalWatermark(1000);
    const EngineStats stats = engine->Finish();
    EngineRun run;
    for (const JoinResult& r : sink.TakeResults()) {
      run.results.push_back({r.base, r.aggregate, r.match_count});
    }
    SortResults(&run.results);
    ExpectResultsEqual(run.results, expected, "small drain");
    EXPECT_EQ(stats.columnar_bases, 12u);
  }
}

TEST(EngineBehaviourTest, EagerFinalizesPerBurst) {
  // Eager bases are ready on arrival, and the joiner finalizes once per
  // ring burst, so the bases of one burst share a drain long enough for
  // the columnar kernels. Finalizing per tuple would make every drain a
  // run of one, which never goes columnar.
  const Timestamp disorder = 80;
  const WorkloadSpec w = TestWorkload(141, /*keys=*/4, disorder);
  const QuerySpec q = TestQuery(EmitMode::kEager, AggKind::kCount, disorder);
  const auto events = Generate(w);
  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    EngineOptions options;
    options.num_joiners = 1;
    // Staging whole punctuation intervals fixes the ring batches the
    // joiner pops, whatever the relative speed of driver and joiner.
    options.batch_size = 256;
    const auto run = RunOverEvents(kind, events, q, options);
    ASSERT_GT(run.stats.results, 0u) << EngineKindName(kind);
    EXPECT_GT(run.stats.columnar_bases, run.stats.results / 2)
        << EngineKindName(kind);
  }
}

TEST(EngineBehaviourTest, StartValidatesOptions) {
  // Construction must survive an invalid configuration so that Start()
  // can report it: no engine may divide by a zero joiner or partition
  // count before validation runs.
  const QuerySpec q = TestQuery(EmitMode::kWatermark);
  const std::vector<std::pair<const char*, void (*)(EngineOptions&)>>
      invalid = {
          {"num_joiners=0", [](EngineOptions& o) { o.num_joiners = 0; }},
          {"num_partitions=0",
           [](EngineOptions& o) { o.num_partitions = 0; }},
          {"columnar_min_run=1",
           [](EngineOptions& o) { o.columnar_min_run = 1; }},
      };
  for (EngineKind kind :
       {EngineKind::kKeyOij, EngineKind::kScaleOij, EngineKind::kSplitJoin,
        EngineKind::kSharedState}) {
    for (const auto& [label, make_invalid] : invalid) {
      EngineOptions options;
      make_invalid(options);
      NullSink sink;
      auto engine = CreateEngine(kind, q, options, &sink);
      const Status s = engine->Start();
      EXPECT_EQ(s.code(), Status::Code::kInvalidArgument)
          << EngineKindName(kind) << " " << label << ": " << s.ToString();
    }
  }
}

TEST(EngineBehaviourTest, BreakdownWithinBusyTime) {
  // Fig 6's invariant for both finalizing engines: lookup and match are
  // parts of busy time. Long drains make the columnar gather and sweep
  // (timed as lookup) run; Scale-OIJ also finalizes from OnIdle, which
  // must count as busy.
  const WorkloadSpec w = TestWorkload(151);
  const QuerySpec q = TestQuery(EmitMode::kWatermark);
  const auto events = Generate(w);
  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    // The per-base arm times each base's index seek or key scan as lookup.
    for (bool columnar : {true, false}) {
      SCOPED_TRACE(std::string(EngineKindName(kind)) +
                   (columnar ? " columnar" : " per-base"));
      EngineOptions options;
      options.num_joiners = 2;
      if (!columnar) options.columnar_min_run = UINT32_MAX;
      const auto run =
          RunOverEvents(kind, events, q, options, /*wm_every=*/512);
      const TimeBreakdown& b = run.stats.breakdown;
      if (columnar) {
        EXPECT_GT(run.stats.columnar_groups, 0u);
      } else {
        EXPECT_EQ(run.stats.columnar_groups, 0u);
      }
      EXPECT_GT(b.lookup_ns, 0);
      EXPECT_LE(b.lookup_ns + b.match_ns, b.busy_ns);
    }
  }
}

TEST(EngineBehaviourTest, EmptyStreamFinishesCleanly) {
  const QuerySpec q = TestQuery(EmitMode::kWatermark);
  EngineOptions options;
  options.num_joiners = 2;
  for (EngineKind kind :
       {EngineKind::kKeyOij, EngineKind::kScaleOij, EngineKind::kSplitJoin,
        EngineKind::kSharedState}) {
    CollectingSink sink;
    auto engine = CreateEngine(kind, q, options, &sink);
    ASSERT_TRUE(engine->Start().ok());
    const EngineStats stats = engine->Finish();
    EXPECT_EQ(stats.results, 0u) << EngineKindName(kind);
  }
}

TEST(EngineBehaviourTest, FactoryNamesRoundTrip) {
  for (EngineKind kind :
       {EngineKind::kKeyOij, EngineKind::kScaleOij, EngineKind::kSplitJoin,
        EngineKind::kSharedState}) {
    EngineKind parsed;
    ASSERT_TRUE(EngineKindFromName(EngineKindName(kind), &parsed).ok());
    EXPECT_EQ(parsed, kind);
  }
  EngineKind parsed;
  EXPECT_FALSE(EngineKindFromName("flink", &parsed).ok());
}

TEST(EngineBehaviourTest, CacheSimReceivesTraffic) {
  CacheSim sim;
  WorkloadSpec w = TestWorkload(131);
  const QuerySpec q = TestQuery(EmitMode::kWatermark);
  const auto events = Generate(w);
  EngineOptions options;
  options.num_joiners = 2;
  options.cache_sim = &sim;
  options.cache_sample_period = 4;
  RunOverEvents(EngineKind::kKeyOij, events, q, options);
  EXPECT_GT(sim.accesses(), 1000u);
}

}  // namespace
}  // namespace oij
