// Randomized differential testing: every trial draws a random workload,
// query, engine and configuration, runs it, and compares against the
// reference oracle: exactly in watermark mode, and within the eager
// sandwich (never over-count, never miss a probe older than
// end - disorder) in eager mode. Any mismatch prints the full recipe
// needed to reproduce it. This is the broad-coverage backstop behind the
// hand-picked grids in engine_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/engine_factory.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "stream/generator.h"

namespace oij {
namespace {

struct FuzzCase {
  WorkloadSpec workload;
  QuerySpec query;
  EngineKind kind = EngineKind::kScaleOij;
  EngineOptions options;
  uint64_t wm_every = 256;

  std::string Describe() const {
    std::ostringstream os;
    os << "engine=" << EngineKindName(kind)
       << " joiners=" << options.num_joiners
       << " dyn=" << options.dynamic_schedule
       << " inc=" << options.incremental_agg
       << " min_run=" << options.columnar_min_run
       << " partitions=" << options.num_partitions
       << " rebalance_every=" << options.rebalance_interval_events
       << " | keys=" << workload.num_keys << " pre=" << query.window.pre
       << " fol=" << query.window.fol << " lateness=" << query.lateness_us
       << " probe_frac=" << workload.probe_fraction
       << " tuples=" << workload.total_tuples
       << " agg=" << AggKindName(query.agg) << " emit="
       << (query.emit_mode == EmitMode::kEager ? "eager" : "watermark")
       << " disorder=" << workload.disorder_bound_us
       << " seed=" << workload.seed << " wm_every=" << wm_every;
    return os.str();
  }
};

// Trials [0, kExactTrials) are the original exact-mode recipes. The
// eager trials that follow are a quarter of the first kExactTrials +
// kEagerTrials; the next kPerBaseTrials force the per-base path in
// watermark mode. The last kTeamGrowthTrials grow Scale-OIJ teams under
// carried resident windows, alternating watermark and eager runs: after
// a team grows, no non-late probe may land at or below a carried end.
// The kGateTrials after them put both finalizing engines' key-groups
// around the columnar bar: a few keys, disorder up to the lateness (so
// arrivals insert anywhere in a key's pending run), and a small
// columnar_min_run.
constexpr int kExactTrials = 24;
constexpr int kEagerTrials = 8;
constexpr int kPerBaseTrials = 4;
constexpr int kTeamGrowthTrials = 4;
constexpr int kGateTrials = 4;

FuzzCase DrawCase(Rng& rng, int trial) {
  FuzzCase c;
  c.workload.seed = rng.Next();
  c.workload.num_keys = 1 + rng.NextBelow(200);
  c.workload.total_tuples = 8'000 + rng.NextBelow(12'000);
  c.workload.event_rate_per_sec = 1'000'000;
  c.workload.probe_fraction = 0.2 + rng.NextDouble() * 0.6;
  const Timestamp lateness = static_cast<Timestamp>(rng.NextBelow(500));
  c.workload.lateness_us = lateness;
  c.workload.disorder_bound_us =
      static_cast<Timestamp>(rng.NextBelow(lateness + 1));
  if (rng.NextBelow(4) == 0) {
    c.workload.key_distribution = KeyDistribution::kZipf;
    c.workload.zipf_theta = rng.NextDouble() * 1.2;
  }

  c.query.window.pre = static_cast<Timestamp>(rng.NextBelow(2000));
  c.query.window.fol = static_cast<Timestamp>(rng.NextBelow(400));
  c.query.lateness_us = lateness;
  c.query.emit_mode = EmitMode::kWatermark;
  const AggKind kinds[] = {AggKind::kSum, AggKind::kCount, AggKind::kAvg,
                           AggKind::kMin, AggKind::kMax};
  c.query.agg = kinds[rng.NextBelow(5)];
  c.workload.window = c.query.window;

  const EngineKind engines[] = {EngineKind::kKeyOij, EngineKind::kScaleOij,
                                EngineKind::kSplitJoin};
  c.kind = engines[rng.NextBelow(3)];
  c.options.num_joiners = 1 + static_cast<uint32_t>(rng.NextBelow(6));
  c.options.dynamic_schedule = rng.NextBelow(2) == 0;
  c.options.incremental_agg = rng.NextBelow(2) == 0;
  c.options.num_partitions = 16 << rng.NextBelow(5);
  c.options.rebalance_interval_events = 1024 << rng.NextBelow(4);
  c.wm_every = 64 << rng.NextBelow(5);
  if (trial < kExactTrials) return c;

  if (trial < kExactTrials + kEagerTrials) {
    c.query.emit_mode = EmitMode::kEager;
    // Few keys give resident windows of many probes, where eager
    // carries must stop short of the completeness horizon.
    c.workload.num_keys = 1 + rng.NextBelow(16);
    if (rng.NextBelow(2) == 0) c.options.columnar_min_run = UINT32_MAX;
  } else if (trial < kExactTrials + kEagerTrials + kPerBaseTrials) {
    c.options.columnar_min_run = UINT32_MAX;
  } else if (trial < kExactTrials + kEagerTrials + kPerBaseTrials +
                         kTeamGrowthTrials) {
    // A few hot keys on several joiners and a short rebalance interval:
    // teams replicate while every key carries a resident window.
    c.kind = EngineKind::kScaleOij;
    c.options.num_joiners = 2 + static_cast<uint32_t>(rng.NextBelow(3));
    c.options.dynamic_schedule = true;
    c.options.incremental_agg = true;
    c.options.rebalance_interval_events = 256 << rng.NextBelow(3);
    c.workload.num_keys = 1 + rng.NextBelow(4);
    const AggKind team_kinds[] = {AggKind::kMin, AggKind::kMax,
                                  AggKind::kAvg};
    c.query.agg = team_kinds[rng.NextBelow(3)];
    if (trial % 2 == 1) c.query.emit_mode = EmitMode::kEager;
  } else {
    const uint32_t min_runs[] = {2, 3, 4, 8};
    c.options.columnar_min_run = min_runs[rng.NextBelow(4)];
    c.kind = (trial / 2) % 2 == 0 ? EngineKind::kKeyOij
                                  : EngineKind::kScaleOij;
    c.workload.num_keys = 1 + rng.NextBelow(3);
    c.workload.disorder_bound_us = lateness;
    if (trial % 2 == 1) c.query.emit_mode = EmitMode::kEager;
  }
  return c;
}

void RunCase(const FuzzCase& c) {
  SCOPED_TRACE(c.Describe());

  WorkloadGenerator gen(c.workload);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);

  auto expected = ReferenceJoin(events, c.query);
  SortResults(&expected);

  CollectingSink sink;
  auto engine = CreateEngine(c.kind, c.query, c.options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(c.query.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& e : events) {
    tracker.Observe(e.tuple.ts);
    engine->Push(e, MonotonicNowUs());
    if (++n % c.wm_every == 0) {
      engine->SignalWatermark(tracker.watermark());
    }
  }
  engine->Finish();

  std::vector<ReferenceResult> got;
  for (const JoinResult& r : sink.TakeResults()) {
    got.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&got);

  // Eager results may miss only probes that arrive after their base,
  // which the generator bounds to ts in (end - disorder, end].
  const bool eager = c.query.emit_mode == EmitMode::kEager;
  std::unordered_map<Key, std::vector<Timestamp>> probe_ts;
  for (const StreamEvent& e : events) {
    if (e.stream == StreamId::kProbe) {
      probe_ts[e.tuple.key].push_back(e.tuple.ts);
    }
  }
  for (auto& [key, ts] : probe_ts) std::sort(ts.begin(), ts.end());
  auto floor_count = [&](const Tuple& base) -> uint64_t {
    const std::vector<Timestamp>& ts = probe_ts[base.key];
    const Timestamp hi_ts = c.query.window.end_for(base.ts) -
                            c.workload.disorder_bound_us - 1;
    const auto lo = std::lower_bound(ts.begin(), ts.end(),
                                     c.query.window.start_for(base.ts));
    const auto hi = std::upper_bound(ts.begin(), ts.end(), hi_ts);
    return hi > lo ? static_cast<uint64_t>(hi - lo) : 0;
  };

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].base, expected[i].base) << "result " << i;
    if (eager) {
      ASSERT_LE(got[i].match_count, expected[i].match_count)
          << "eager over-count at result " << i;
      ASSERT_GE(got[i].match_count, floor_count(got[i].base))
          << "eager missed a probe outside the disorder bound at result "
          << i << " base ts=" << got[i].base.ts << " key=" << got[i].base.key;
      // A full count means the whole window was seen: then the
      // aggregate must be exact too.
      if (got[i].match_count < expected[i].match_count) continue;
    } else {
      ASSERT_EQ(got[i].match_count, expected[i].match_count)
          << "result " << i << " base ts=" << got[i].base.ts
          << " key=" << got[i].base.key;
    }
    if (std::isnan(expected[i].aggregate)) {
      ASSERT_TRUE(std::isnan(got[i].aggregate)) << "result " << i;
    } else {
      ASSERT_NEAR(got[i].aggregate, expected[i].aggregate, 1e-6)
          << "result " << i;
    }
  }
}

class EngineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzzTest, RandomConfigMatchesReference) {
  Rng rng(0xF022 + static_cast<uint64_t>(GetParam()) * 7919);
  RunCase(DrawCase(rng, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Trials, EngineFuzzTest,
    ::testing::Range(0, kExactTrials + kEagerTrials + kPerBaseTrials +
                            kTeamGrowthTrials + kGateTrials));

}  // namespace
}  // namespace oij
