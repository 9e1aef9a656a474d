// Columnar batch-join kernel tests (src/col/, DESIGN.md §5h):
//
//   * sweep-merge window slices vs a brute-force filter on adversarial
//     timestamp patterns (duplicates on boundaries, ±1 edges);
//   * GatherRange vs TimeTravelIndex::ForEachInRange equivalence;
//   * SIMD-vs-portable bit-exactness of the slice aggregation kernels;
//   * engine differentials: columnar on vs off vs the policy-aware
//     reference oracle, across both parallel index engines, lateness
//     policies, aggregate kinds, multi-query catalogs, the NaN-payload
//     scalar fallback, and a crash-recovery replay.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "col/column_batch.h"
#include "col/sweep_merge.h"
#include "col/vector_agg.h"
#include "common/clock.h"
#include "core/engine_factory.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "mem/node_arena.h"
#include "skiplist/time_travel_index.h"
#include "stream/generator.h"

namespace oij {
namespace {

// ------------------------------------------------------------ helpers

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

EngineRun RunOverEvents(EngineKind kind,
                        const std::vector<StreamEvent>& events,
                        const QuerySpec& spec, EngineOptions options,
                        uint64_t wm_every) {
  CollectingSink sink;
  auto engine = CreateEngine(kind, spec, options, &sink);
  EXPECT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(spec.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % wm_every == 0) engine->SignalWatermark(tracker.watermark());
  }
  EngineRun run;
  run.stats = engine->Finish();
  for (const JoinResult& r : sink.TakeResults()) {
    run.results.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&run.results);
  return run;
}

/// NaN-tolerant comparison: aggregates must both be NaN or agree within
/// tolerance; match counts must agree exactly.
void ExpectResultsEqual(const std::vector<ReferenceResult>& got,
                        const std::vector<ReferenceResult>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label << ": result cardinality";
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const bool agg_ok =
        std::isnan(want[i].aggregate)
            ? std::isnan(got[i].aggregate)
            : std::abs(got[i].aggregate - want[i].aggregate) < 1e-6;
    if (got[i].base != want[i].base ||
        got[i].match_count != want[i].match_count || !agg_ok) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << label << ": result " << i
                      << " differs: base ts=" << got[i].base.ts
                      << " key=" << got[i].base.key
                      << " got(count=" << got[i].match_count
                      << ", agg=" << got[i].aggregate
                      << ") want(count=" << want[i].match_count
                      << ", agg=" << want[i].aggregate << ")";
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

QuerySpec TestQuery(AggKind agg = AggKind::kSum, Timestamp lateness = 50,
                    IntervalWindow window = {400, 0},
                    LatePolicy policy = LatePolicy::kBestEffortJoin) {
  QuerySpec q;
  q.window = window;
  q.lateness_us = lateness;
  q.agg = agg;
  q.emit_mode = EmitMode::kWatermark;
  q.late_policy = policy;
  return q;
}

// ------------------------------------------- sweep merge: window slices

/// Brute-force oracle for one base's slice.
col::BaseSlice BruteSlice(Timestamp base_ts, IntervalWindow w,
                          const std::vector<Timestamp>& probe_ts) {
  col::BaseSlice s;
  const Timestamp start = w.start_for(base_ts);
  const Timestamp end = w.end_for(base_ts);
  uint32_t i = 0;
  while (i < probe_ts.size() && probe_ts[i] < start) ++i;
  s.lo = i;
  while (i < probe_ts.size() && probe_ts[i] <= end) ++i;
  s.hi = i;
  return s;
}

TEST(SweepMergeTest, SlicesMatchBruteForceOnAdversarialPatterns) {
  std::mt19937_64 rng(0x51eeu);
  for (int iter = 0; iter < 200; ++iter) {
    const IntervalWindow window{static_cast<Timestamp>(rng() % 20),
                                static_cast<Timestamp>(rng() % 20)};
    // Probe timestamps: sorted, dense, with duplicate runs — so window
    // boundaries frequently land exactly on (runs of) equal timestamps.
    std::vector<Timestamp> probes;
    Timestamp t = static_cast<Timestamp>(rng() % 5);
    const size_t num_probes = rng() % 50;
    for (size_t i = 0; i < num_probes; ++i) {
      probes.push_back(t);
      if (rng() % 3 != 0) t += static_cast<Timestamp>(rng() % 3);
    }
    // Base timestamps: sorted, overlapping the probe range, including
    // exact boundary hits and ±1 off-by-one neighbours.
    std::vector<Timestamp> bases;
    Timestamp bt = 0;
    const size_t num_bases = 1 + rng() % 20;
    for (size_t i = 0; i < num_bases; ++i) {
      bt += static_cast<Timestamp>(rng() % 4);
      switch (rng() % 4) {
        case 0:
          bases.push_back(bt);
          break;
        case 1:
          bases.push_back(bt + 1);
          break;
        case 2:
          bases.push_back(bt > 0 ? bt - 1 : bt);
          break;
        default:
          bases.push_back(probes.empty()
                              ? bt
                              : probes[rng() % probes.size()] + window.pre);
          break;
      }
    }
    std::sort(bases.begin(), bases.end());

    std::vector<col::BaseSlice> got(bases.size());
    col::ComputeWindowSlices(bases.data(), bases.size(), window,
                             probes.data(), probes.size(), got.data());
    for (size_t i = 0; i < bases.size(); ++i) {
      const col::BaseSlice want = BruteSlice(bases[i], window, probes);
      EXPECT_EQ(got[i].lo, want.lo)
          << "iter " << iter << " base " << i << " ts=" << bases[i];
      EXPECT_EQ(got[i].hi, want.hi)
          << "iter " << iter << " base " << i << " ts=" << bases[i];
    }
  }
}

TEST(SweepMergeTest, EmptyProbesAndDisjointWindows) {
  const IntervalWindow window{5, 0};
  const std::vector<Timestamp> bases = {10, 100, 1000};
  std::vector<col::BaseSlice> slices(bases.size());
  // No probes at all.
  col::ComputeWindowSlices(bases.data(), bases.size(), window, nullptr, 0,
                           slices.data());
  for (const auto& s : slices) EXPECT_EQ(s.lo, s.hi);
  // Probes entirely between the windows: every slice is empty but the
  // cursors must never regress.
  const std::vector<Timestamp> probes = {30, 40, 50, 500, 600};
  col::ComputeWindowSlices(bases.data(), bases.size(), window, probes.data(),
                           probes.size(), slices.data());
  for (size_t i = 0; i < slices.size(); ++i) {
    EXPECT_EQ(slices[i].lo, slices[i].hi) << i;
    if (i > 0) {
      EXPECT_GE(slices[i].lo, slices[i - 1].lo);
    }
  }
}

// --------------------------------------- GatherRange vs ForEachInRange

TEST(SweepMergeTest, GatherRangeMatchesForEachInRange) {
  std::mt19937_64 rng(0x6a7eu);
  NodeArena arena;
  TimeTravelIndex index(arena);
  for (int i = 0; i < 2000; ++i) {
    Tuple t;
    t.key = static_cast<Key>(rng() % 5);
    t.ts = static_cast<Timestamp>(rng() % 500);
    t.payload = static_cast<double>(rng() % 1000) * 0.25;
    index.Insert(t);
  }
  col::ProbeColumns probes;
  for (int iter = 0; iter < 100; ++iter) {
    const Key key = static_cast<Key>(rng() % 6);  // includes a missing key
    Timestamp lo = static_cast<Timestamp>(rng() % 520);
    Timestamp hi = static_cast<Timestamp>(rng() % 520);
    if (lo > hi) std::swap(lo, hi);

    std::vector<Timestamp> want_ts;
    std::vector<double> want_payload;
    index.ForEachInRange(key, lo, hi, [&](const Tuple& t) {
      want_ts.push_back(t.ts);
      want_payload.push_back(t.payload);
    });

    probes.Clear();
    size_t touched = 0;
    const size_t gathered = col::GatherRange(
        index, key, lo, hi, &probes, [&](const Tuple&) { ++touched; });
    ASSERT_EQ(gathered, want_ts.size()) << "key=" << key << " [" << lo
                                        << "," << hi << "]";
    EXPECT_EQ(touched, gathered);
    EXPECT_EQ(probes.size(), gathered);
    probes.EnsureSorted();  // single source: must already be sorted
    for (size_t i = 0; i < gathered; ++i) {
      EXPECT_EQ(probes.ts()[i], want_ts[i]);
      EXPECT_EQ(probes.payload()[i], want_payload[i]);
    }
  }
}

TEST(ProbeColumnsTest, EnsureSortedMergesMultipleSources) {
  // Two ts-sorted sources appended back to back (as a team gather does):
  // EnsureSorted must produce one globally sorted sequence, keeping the
  // payload paired with its timestamp.
  col::ProbeColumns probes;
  for (Timestamp t = 0; t < 50; t += 2) probes.Append(t, t * 1.0);
  for (Timestamp t = 1; t < 50; t += 2) probes.Append(t, t * 1.0);
  probes.EnsureSorted();
  ASSERT_EQ(probes.size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(probes.ts()[i], static_cast<Timestamp>(i));
    EXPECT_EQ(probes.payload()[i], static_cast<double>(i));
  }
  // all_finite flips on NaN and resets on Clear.
  EXPECT_TRUE(probes.all_finite());
  probes.Append(100, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(probes.all_finite());
  probes.Clear();
  EXPECT_TRUE(probes.all_finite());
}

TEST(ProbeColumnsTest, RunMergeMatchesStableSort) {
  // A team gather appends one ts-sorted run per source; EnsureSorted
  // merges them. Fuzz 1-6 sources, with empty and 1-element runs, ties
  // within and across runs, and sources that continue where the previous
  // one ended (no run break): the columns must come out bit-equal to a
  // stable sort of the concatenation by ts.
  std::mt19937_64 rng(0x6d657267u);
  col::ProbeColumns probes;  // reused, like a driver's scratch
  for (int iter = 0; iter < 3000; ++iter) {
    const int sources = 1 + static_cast<int>(rng() % 6);
    std::vector<std::pair<Timestamp, double>> want;
    probes.Clear();
    Timestamp last = 0;
    for (int src = 0; src < sources; ++src) {
      size_t len = rng() % 40;
      if (rng() % 4 == 0) len = rng() % 2;
      if (rng() % 64 == 0) len = 1500 + rng() % 2000;
      // Narrow ts ranges make equal timestamps across runs common.
      Timestamp ts = rng() % 3 == 0 ? last : static_cast<Timestamp>(rng() % 20);
      for (size_t i = 0; i < len; ++i) {
        ts += static_cast<Timestamp>(rng() % 3);
        // The payload names its source and position, so a tie taken in
        // the wrong order shows.
        const double payload = src * 1e5 + static_cast<double>(i) + 0.5;
        probes.Append(ts, payload);
        want.emplace_back(ts, payload);
      }
      if (len > 0) last = ts;
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    probes.EnsureSorted();
    ASSERT_EQ(probes.size(), want.size()) << "iter " << iter;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(probes.ts()[i], want[i].first) << "iter " << iter << " @" << i;
      ASSERT_EQ(std::memcmp(&probes.payload()[i], &want[i].second,
                            sizeof(double)),
                0)
          << "iter " << iter << " @" << i;
    }
    // Sorted columns stay put.
    probes.EnsureSorted();
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(probes.ts()[i], want[i].first);
    }
  }
}

// ------------------------------------ SIMD vs portable bit-exactness

TEST(VectorAggTest, SimdMatchesPortableBitExactly) {
  std::mt19937_64 rng(0x51u);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                   size_t{5}, size_t{7}, size_t{8}, size_t{15}, size_t{16},
                   size_t{17}, size_t{63}, size_t{64}, size_t{1000},
                   size_t{4097}}) {
    std::vector<double> v(n);
    for (double& x : v) x = dist(rng);
    const col::SliceAgg a = col::AggregateSlice(v.data(), n);
    const col::SliceAgg b = col::AggregateSlicePortable(v.data(), n);
    EXPECT_EQ(a.count, b.count) << "n=" << n;
    uint64_t abits;
    uint64_t bbits;
    std::memcpy(&abits, &a.sum, 8);
    std::memcpy(&bbits, &b.sum, 8);
    EXPECT_EQ(abits, bbits) << "n=" << n << ": sum not bit-exact";
    if (n > 0) {
      EXPECT_EQ(a.min, b.min) << "n=" << n;
      EXPECT_EQ(a.max, b.max) << "n=" << n;
    }
  }
}

TEST(VectorAggTest, AggregatesMatchScalarReference) {
  std::mt19937_64 rng(0xa9u);
  std::uniform_real_distribution<double> dist(-100.0, 100.0);
  std::vector<double> v(777);
  for (double& x : v) x = dist(rng);
  const col::SliceAgg a = col::AggregateSlice(v.data(), v.size());
  AggState ref;
  for (double x : v) ref.Add(x);
  EXPECT_EQ(a.count, ref.count);
  EXPECT_NEAR(a.sum, ref.sum, 1e-9 * std::abs(ref.sum) + 1e-9);
  EXPECT_EQ(a.min, ref.min);
  EXPECT_EQ(a.max, ref.max);
  // ToAggState round-trips, including the empty case.
  const AggState empty = col::SliceAgg{}.ToAggState();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.Result(AggKind::kSum), 0.0);
}

TEST(VectorAggTest, PrefixSumsMatchSliceSums) {
  std::mt19937_64 rng(0x9eu);
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  std::vector<double> v(512);
  for (double& x : v) x = dist(rng);
  std::vector<double> prefix(v.size() + 1);
  col::PrefixSums(v.data(), v.size(), prefix.data());
  EXPECT_EQ(prefix[0], 0.0);
  for (int iter = 0; iter < 50; ++iter) {
    size_t lo = rng() % (v.size() + 1);
    size_t hi = rng() % (v.size() + 1);
    if (lo > hi) std::swap(lo, hi);
    double want = 0.0;
    for (size_t i = lo; i < hi; ++i) want += v[i];
    EXPECT_NEAR(prefix[hi] - prefix[lo], want, 1e-9);
  }
}

// --------------------------------- engine differentials: on vs off vs oracle

constexpr uint64_t kWmEvery = 512;  // long drains: batches well past 16

class ColumnarDifferentialTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, LatePolicy>> {};

TEST_P(ColumnarDifferentialTest, OnOffOracleAgreeAcrossPolicies) {
  const auto [kind, policy] = GetParam();
  WorkloadSpec w = TestWorkload(301);
  if (policy != LatePolicy::kBestEffortJoin) {
    // Give the lateness gate something to act on.
    w.late_flood_fraction = 0.10;
    w.late_flood_extra_us = 60;
  }
  const auto events = Generate(w);
  const QuerySpec q = TestQuery(AggKind::kSum, 50, {400, 0}, policy);
  auto expected = ReferenceJoinWithPolicy(events, q, kWmEvery);
  SortResults(&expected);

  EngineOptions on;
  on.num_joiners = 3;
  EngineOptions off = on;
  off.columnar_min_run = UINT32_MAX;

  const auto run_on = RunOverEvents(kind, events, q, on, kWmEvery);
  const auto run_off = RunOverEvents(kind, events, q, off, kWmEvery);

  const std::string label = std::string(EngineKindName(kind)) + "/" +
                            std::string(LatePolicyName(policy));
  ExpectResultsEqual(run_on.results, expected, label + "/on-vs-oracle");
  ExpectResultsEqual(run_off.results, expected, label + "/off-vs-oracle");
  // The flag-on run must actually have exercised the kernels.
  EXPECT_GT(run_on.stats.columnar_groups, 0u) << label;
  EXPECT_GT(run_on.stats.columnar_bases, 0u) << label;
  EXPECT_EQ(run_off.stats.columnar_groups, 0u) << label;
}

INSTANTIATE_TEST_SUITE_P(
    EnginesTimesPolicies, ColumnarDifferentialTest,
    ::testing::Combine(::testing::Values(EngineKind::kKeyOij,
                                         EngineKind::kScaleOij),
                       ::testing::Values(LatePolicy::kBestEffortJoin,
                                         LatePolicy::kDropAndCount,
                                         LatePolicy::kSideChannel)),
    [](const auto& info) {
      std::string name =
          std::string(EngineKindName(std::get<0>(info.param))) + "_" +
          std::string(LatePolicyName(std::get<1>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class ColumnarAggTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(ColumnarAggTest, EveryOperatorExactWithColumnarOn) {
  // Exercises all three columnar aggregation modes: prefix sums
  // (sum/count/avg incremental), full SliceAgg (min/max incremental via
  // the NI config, and the full-scan config below).
  const AggKind agg = GetParam();
  const WorkloadSpec w = TestWorkload(311);
  const QuerySpec q = TestQuery(agg);
  const auto events = Generate(w);
  auto expected = ReferenceJoinWithPolicy(events, q, kWmEvery);
  SortResults(&expected);

  for (bool incremental : {true, false}) {
    EngineOptions options;
    options.num_joiners = 3;
    options.incremental_agg = incremental;
    const auto run =
        RunOverEvents(EngineKind::kScaleOij, events, q, options, kWmEvery);
    ExpectResultsEqual(run.results, expected,
                       std::string(AggKindName(agg)) +
                           (incremental ? "/inc" : "/full"));
    EXPECT_GT(run.stats.columnar_groups, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAggs, ColumnarAggTest,
                         ::testing::Values(AggKind::kSum, AggKind::kCount,
                                           AggKind::kAvg, AggKind::kMin,
                                           AggKind::kMax),
                         [](const auto& info) {
                           return std::string(AggKindName(info.param));
                         });

TEST(ColumnarEngineTest, MixedBatchSizesInterleaveScalarAndColumnar) {
  // A small wm_every keeps many drains under columnar_min_run, so scalar
  // replays and columnar groups interleave within one run — both must
  // compose exactly, reading and advancing the same resident key
  // windows.
  const WorkloadSpec w = TestWorkload(321, /*keys=*/4);
  const QuerySpec q = TestQuery();
  const auto events = Generate(w);

  for (uint64_t wm_every : {32u, 64u, 128u}) {
    auto expected = ReferenceJoinWithPolicy(events, q, wm_every);
    SortResults(&expected);
    for (EngineKind kind :
         {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
      EngineOptions options;
      options.num_joiners = 2;
      const auto run = RunOverEvents(kind, events, q, options, wm_every);
      ExpectResultsEqual(run.results, expected,
                         std::string(EngineKindName(kind)) + "/wm" +
                             std::to_string(wm_every));
    }
  }
}

TEST(ColumnarEngineTest, FollowingWindowAndWideWindowExact) {
  const WorkloadSpec w = TestWorkload(331);
  const auto events = Generate(w);
  for (IntervalWindow window :
       {IntervalWindow{200, 150}, IntervalWindow{1200, 0},
        IntervalWindow{0, 300}}) {
    const QuerySpec q = TestQuery(AggKind::kSum, 50, window);
    auto expected = ReferenceJoinWithPolicy(events, q, kWmEvery);
    SortResults(&expected);
    for (EngineKind kind :
         {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
      EngineOptions options;
      options.num_joiners = 2;
      const auto run = RunOverEvents(kind, events, q, options, kWmEvery);
      ExpectResultsEqual(run.results, expected,
                         std::string(EngineKindName(kind)) + "/pre" +
                             std::to_string(window.pre) + "+fol" +
                             std::to_string(window.fol));
      EXPECT_GT(run.stats.columnar_groups, 0u);
    }
  }
}

// ------------------------------------------------ NaN-payload fallback

TEST(ColumnarEngineTest, NaNPayloadsFallBackToScalarPath) {
  // Hand-rolled in-order stream where some probe payloads are NaN: the
  // columnar path must detect them at staging time and take the scalar
  // fallback for those groups, agreeing with the flag-off run on match
  // counts and NaN-ness of aggregates.
  std::vector<StreamEvent> events;
  std::mt19937_64 rng(0x7a11u);
  for (Timestamp t = 0; t < 4000; ++t) {
    StreamEvent ev;
    ev.tuple.ts = t;
    ev.tuple.key = static_cast<Key>(t % 3);
    if (t % 2 == 0) {
      ev.stream = StreamId::kProbe;
      ev.tuple.payload = (rng() % 16 == 0)
                             ? std::numeric_limits<double>::quiet_NaN()
                             : static_cast<double>(rng() % 100);
    } else {
      ev.stream = StreamId::kBase;
      ev.tuple.payload = 1.0;
    }
    events.push_back(ev);
  }
  QuerySpec q = TestQuery(AggKind::kSum, /*lateness=*/0, {100, 0});

  EngineOptions on;
  on.num_joiners = 2;
  // Full-scan mode on both sides: the scalar *incremental* sum state is
  // NaN-poisoned forever once a NaN probe enters (NaN − NaN = NaN), while
  // per-window recomputation — and the columnar path, which reseeds from
  // exact prefix sums — recovers as soon as the NaN leaves the window.
  on.incremental_agg = false;
  EngineOptions off = on;
  off.columnar_min_run = UINT32_MAX;

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    const auto run_on = RunOverEvents(kind, events, q, on, 256);
    const auto run_off = RunOverEvents(kind, events, q, off, 256);
    ExpectResultsEqual(run_on.results, run_off.results,
                       std::string(EngineKindName(kind)) + "/nan");
    EXPECT_GT(run_on.stats.columnar_fallbacks, 0u)
        << EngineKindName(kind) << ": NaN groups never hit the fallback";
  }
}

// ------------------------------------------------- multi-query catalogs

TEST(ColumnarEngineTest, MultiQueryCatalogOnOffOracleAgree) {
  // Three standing queries with different windows, aggregates and
  // lateness policies share the engine; every query's stream must match
  // its own oracle with the columnar path on, and the on/off runs must
  // agree per query.
  // No late flood: best-effort annex joins are bracketed rather than
  // exact (multi_query_test covers that); here every policy must be
  // oracle-exact so the columnar on/off diff is three-way.
  const WorkloadSpec w = TestWorkload(341, /*keys=*/12);
  const auto events = Generate(w);

  const QuerySpec primary = TestQuery(AggKind::kSum);
  QuerySpec narrow =
      TestQuery(AggKind::kMin, 50, {150, 0}, LatePolicy::kDropAndCount);
  QuerySpec follows =
      TestQuery(AggKind::kAvg, 50, {250, 100}, LatePolicy::kBestEffortJoin);

  std::vector<QuerySpec> specs = {primary, narrow, follows};
  std::vector<std::vector<ReferenceResult>> oracles;
  for (const QuerySpec& spec : specs) {
    auto expected = ReferenceJoinWithPolicy(events, spec, kWmEvery);
    SortResults(&expected);
    oracles.push_back(std::move(expected));
  }

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    std::map<uint32_t, std::vector<ReferenceResult>> by_query_on;
    std::map<uint32_t, std::vector<ReferenceResult>> by_query_off;
    for (bool columnar : {true, false}) {
      EngineOptions options;
      options.num_joiners = 3;
      if (!columnar) options.columnar_min_run = UINT32_MAX;
      CollectingSink sink;
      auto engine = CreateEngine(kind, primary, options, &sink);
      ASSERT_TRUE(engine->Start().ok());
      ASSERT_TRUE(engine->AddQuery("narrow", narrow).ok());
      ASSERT_TRUE(engine->AddQuery("follows", follows).ok());
      WatermarkTracker tracker(primary.lateness_us);
      uint64_t n = 0;
      for (const StreamEvent& ev : events) {
        tracker.Observe(ev.tuple.ts);
        engine->Push(ev, MonotonicNowUs());
        if (++n % kWmEvery == 0) {
          engine->SignalWatermark(tracker.watermark());
        }
      }
      const EngineStats stats = engine->Finish();
      if (columnar) {
        EXPECT_GT(stats.columnar_groups, 0u);
      }
      auto& by_query = columnar ? by_query_on : by_query_off;
      for (const JoinResult& r : sink.TakeResults()) {
        by_query[r.query].push_back({r.base, r.aggregate, r.match_count});
      }
      for (auto& [ord, results] : by_query) SortResults(&results);
    }
    ASSERT_EQ(by_query_on.size(), specs.size()) << EngineKindName(kind);
    for (const auto& [ord, results] : by_query_on) {
      ASSERT_LT(ord, specs.size());
      const std::string label = std::string(EngineKindName(kind)) +
                                "/query" + std::to_string(ord);
      ExpectResultsEqual(results, oracles[ord], label + "/on-vs-oracle");
      ExpectResultsEqual(by_query_off[ord], oracles[ord],
                         label + "/off-vs-oracle");
    }
  }
}

// --------------------------------------------- crash-recovery replay

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/oij_col_batch_test_XXXXXX";
    char* p = mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path_ = p;
  }
  ~TempDir() {
    if (path_.empty()) return;
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using BaseKey = std::tuple<Timestamp, Key, double>;

TEST(ColumnarEngineTest, RecoveryReplayExactWithColumnarOn) {
  // Crash after a durable punctuation, recover from the WAL and finish
  // the stream — all with the columnar path on; the union of both
  // incarnations' results must be oracle-exact (the recovery replay
  // itself drains through the batch kernels too).
  WorkloadSpec w = TestWorkload(351, /*keys=*/16);
  w.total_tuples = 12'000;
  const auto events = Generate(w);
  const QuerySpec q = TestQuery();
  constexpr uint64_t kRecoveryWmEvery = 256;
  const size_t crash_at =
      (events.size() / 2 / kRecoveryWmEvery) * kRecoveryWmEvery;
  auto expected = ReferenceJoinWithPolicy(events, q, kRecoveryWmEvery);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    TempDir dir;
    EngineOptions options;
    options.num_joiners = 2;
    options.durability.wal_dir = dir.path();
    options.durability.fsync = FsyncPolicy::kPerBatch;
    const std::string label(EngineKindName(kind));

    WatermarkTracker tracker(q.lateness_us);
    std::map<BaseKey, JoinResult> acc;
    auto accumulate = [&acc](const std::vector<JoinResult>& results) {
      for (const JoinResult& r : results) {
        acc.emplace(BaseKey{r.base.ts, r.base.key, r.base.payload}, r);
      }
    };

    CollectingSink sink1;
    auto engine1 = CreateEngine(kind, q, options, &sink1);
    ASSERT_TRUE(engine1->Start().ok()) << label;
    uint64_t n = 0;
    for (size_t i = 0; i < crash_at; ++i) {
      tracker.Observe(events[i].tuple.ts);
      engine1->Push(events[i], MonotonicNowUs());
      if (++n % kRecoveryWmEvery == 0) {
        engine1->SignalWatermark(tracker.watermark());
      }
    }
    static_cast<ParallelEngineBase*>(engine1.get())->CrashForTest();
    accumulate(sink1.TakeResults());

    CollectingSink sink2;
    auto engine2 = CreateEngine(kind, q, options, &sink2);
    ASSERT_TRUE(engine2->Start().ok()) << label;
    ASSERT_TRUE(engine2->Recover().ok()) << label;
    for (size_t i = crash_at; i < events.size(); ++i) {
      tracker.Observe(events[i].tuple.ts);
      engine2->Push(events[i], MonotonicNowUs());
      if (++n % kRecoveryWmEvery == 0) {
        engine2->SignalWatermark(tracker.watermark());
      }
    }
    const EngineStats stats = engine2->Finish();
    accumulate(sink2.TakeResults());
    EXPECT_GT(stats.columnar_groups, 0u) << label;

    ASSERT_EQ(acc.size(), expected.size()) << label << ": cardinality";
    size_t mismatches = 0;
    for (const ReferenceResult& want : expected) {
      const auto it = acc.find(
          BaseKey{want.base.ts, want.base.key, want.base.payload});
      if (it == acc.end() ||
          it->second.match_count != want.match_count ||
          std::abs(it->second.aggregate - want.aggregate) > 1e-6) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << label;
  }
}

}  // namespace
}  // namespace oij
