// Randomized differential testing: every trial draws a random workload,
// query, engine and configuration, runs it in exact (watermark) mode, and
// compares against the reference oracle. Any mismatch prints the full
// recipe needed to reproduce it. This is the broad-coverage backstop
// behind the hand-picked grids in engine_test.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

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
       << " partitions=" << options.num_partitions
       << " | keys=" << workload.num_keys << " pre=" << query.window.pre
       << " fol=" << query.window.fol << " lateness=" << query.lateness_us
       << " probe_frac=" << workload.probe_fraction
       << " tuples=" << workload.total_tuples
       << " agg=" << AggKindName(query.agg)
       << " seed=" << workload.seed << " wm_every=" << wm_every;
    return os.str();
  }
};

FuzzCase DrawCase(Rng& rng) {
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

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].base, expected[i].base) << "result " << i;
    ASSERT_EQ(got[i].match_count, expected[i].match_count)
        << "result " << i << " base ts=" << got[i].base.ts
        << " key=" << got[i].base.key;
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
  RunCase(DrawCase(rng));
}

INSTANTIATE_TEST_SUITE_P(Trials, EngineFuzzTest, ::testing::Range(0, 24));

}  // namespace
}  // namespace oij
