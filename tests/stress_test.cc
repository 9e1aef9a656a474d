// Stress and adversarial-configuration tests: exactness must survive
// backpressure (tiny queues), punctuation storms, oversubscription (more
// joiners than cores), aggressive rebalancing, and long soak runs with
// heavy eviction. These target the cross-thread protocols (progress
// gating, read floors, EBR) rather than the happy paths.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "core/engine_factory.h"
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

void ExpectExact(EngineKind kind, const std::vector<StreamEvent>& events,
                 const QuerySpec& q, const EngineOptions& options,
                 uint64_t wm_every, const std::string& label) {
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);

  CollectingSink sink;
  auto engine = CreateEngine(kind, q, options, &sink);
  ASSERT_TRUE(engine->Start().ok()) << label;
  WatermarkTracker tracker(q.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % wm_every == 0) engine->SignalWatermark(tracker.watermark());
  }
  engine->Finish();

  std::vector<ReferenceResult> got;
  for (const JoinResult& r : sink.TakeResults()) {
    got.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&got);
  ASSERT_EQ(got.size(), expected.size()) << label;
  size_t bad = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].match_count != expected[i].match_count ||
        (!std::isnan(expected[i].aggregate) &&
         std::abs(got[i].aggregate - expected[i].aggregate) > 1e-6)) {
      ++bad;
    }
  }
  EXPECT_EQ(bad, 0u) << label;
}

WorkloadSpec StressWorkload(uint64_t seed) {
  WorkloadSpec w;
  w.num_keys = 8;
  w.window = IntervalWindow{400, 0};
  w.lateness_us = 60;
  w.disorder_bound_us = 60;
  w.total_tuples = 40'000;
  w.seed = seed;
  return w;
}

QuerySpec StressQuery() {
  QuerySpec q;
  q.window = IntervalWindow{400, 0};
  q.lateness_us = 60;
  q.emit_mode = EmitMode::kWatermark;
  return q;
}

TEST(StressTest, TinyQueuesForceBackpressure) {
  const auto events = Generate(StressWorkload(501));
  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij,
                          EngineKind::kSplitJoin}) {
    EngineOptions options;
    options.num_joiners = 3;
    options.queue_capacity = 8;  // constant push-side stalls
    ExpectExact(kind, events, StressQuery(), options, 64,
                std::string("tiny-queues/") +
                    std::string(EngineKindName(kind)));
  }
}

TEST(StressTest, PunctuationEveryEvent) {
  // A punctuation after every tuple maximizes eviction/rebalance churn
  // and progress publication.
  const auto events = Generate(StressWorkload(502));
  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    EngineOptions options;
    options.num_joiners = 2;
    ExpectExact(kind, events, StressQuery(), options, 1,
                std::string("wm-every-event/") +
                    std::string(EngineKindName(kind)));
  }
}

TEST(StressTest, OversubscribedJoiners) {
  // Far more joiners than cores: progress gating must stay live under
  // arbitrary scheduling delays.
  const auto events = Generate(StressWorkload(503));
  for (EngineKind kind : {EngineKind::kScaleOij, EngineKind::kSplitJoin}) {
    EngineOptions options;
    options.num_joiners = 12;
    ExpectExact(kind, events, StressQuery(), options, 128,
                std::string("oversubscribed/") +
                    std::string(EngineKindName(kind)));
  }
}

TEST(StressTest, AggressiveRebalancing) {
  // Rebalance as often as possible on a skewed stream: schedule
  // publication, team growth, and the monotone-team invariant get
  // hammered while results must stay exact.
  WorkloadSpec w = StressWorkload(504);
  w.num_keys = 3;
  w.key_distribution = KeyDistribution::kZipf;
  w.zipf_theta = 1.2;
  w.total_tuples = 80'000;
  const auto events = Generate(w);

  EngineOptions options;
  options.num_joiners = 4;
  options.rebalance_interval_events = 256;
  options.rebalance.improvement_threshold = 0.0001;
  ExpectExact(EngineKind::kScaleOij, events, StressQuery(), options, 64,
              "aggressive-rebalance");
}

TEST(StressTest, SoakWithHeavyEviction) {
  // A longer run whose retention horizon is a tiny fraction of the
  // stream: eviction (and EBR reclamation) must keep state bounded while
  // staying exact across the whole run.
  WorkloadSpec w = StressWorkload(505);
  w.total_tuples = 300'000;
  w.window = IntervalWindow{150, 0};
  w.lateness_us = 30;
  w.disorder_bound_us = 30;
  QuerySpec q;
  q.window = w.window;
  q.lateness_us = w.lateness_us;
  q.emit_mode = EmitMode::kWatermark;
  const auto events = Generate(w);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    auto expected = ReferenceJoin(events, q);
    SortResults(&expected);
    CollectingSink sink;
    EngineOptions options;
    options.num_joiners = 3;
    auto engine = CreateEngine(kind, q, options, &sink);
    ASSERT_TRUE(engine->Start().ok());
    WatermarkTracker tracker(q.lateness_us);
    uint64_t n = 0;
    for (const StreamEvent& ev : events) {
      tracker.Observe(ev.tuple.ts);
      engine->Push(ev, MonotonicNowUs());
      if (++n % 512 == 0) engine->SignalWatermark(tracker.watermark());
    }
    const EngineStats stats = engine->Finish();
    EXPECT_GT(stats.evicted_tuples, 100'000u) << EngineKindName(kind);
    EXPECT_LT(stats.peak_buffered_tuples, 30'000u) << EngineKindName(kind);

    std::vector<ReferenceResult> got;
    for (const JoinResult& r : sink.TakeResults()) {
      got.push_back({r.base, r.aggregate, r.match_count});
    }
    SortResults(&got);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].match_count, expected[i].match_count)
          << EngineKindName(kind) << " result " << i;
    }
  }
}

TEST(StressTest, ManyKeysManyPartitions) {
  // Key cardinality above partition count: partitions hold many keys
  // each; partition-level scheduling must not leak across keys.
  WorkloadSpec w = StressWorkload(506);
  w.num_keys = 5000;
  w.total_tuples = 60'000;
  const auto events = Generate(w);
  EngineOptions options;
  options.num_joiners = 4;
  options.num_partitions = 32;
  ExpectExact(EngineKind::kScaleOij, events, StressQuery(), options, 256,
              "many-keys-few-partitions");
}

TEST(StressTest, OverloadPoliciesStayLiveAndSubset) {
  // Degraded delivery under sustained overload: a deliberately slow
  // joiner plus tiny queues keeps the drop/shed paths hot for the whole
  // run. The engines must stay live (healthy bounded Finish) and must
  // never emit a result the lossless reference would not have produced —
  // lossy policies may only *remove* probe matches, never invent them.
  WorkloadSpec w = StressWorkload(508);
  w.total_tuples = 12'000;
  const auto events = Generate(w);
  const QuerySpec q = StressQuery();
  auto reference = ReferenceJoin(events, q);

  using BaseKey = std::tuple<Timestamp, Key, double>;
  std::map<BaseKey, ReferenceResult> index;
  for (const ReferenceResult& r : reference) {
    index.emplace(BaseKey{r.base.ts, r.base.key, r.base.payload}, r);
  }

  for (OverloadPolicy policy :
       {OverloadPolicy::kDropNewest, OverloadPolicy::kShedOldest}) {
    for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
      const std::string label = std::string(OverloadPolicyName(policy)) +
                                "/" + std::string(EngineKindName(kind));
      FaultInjector faults;
      faults.slow_joiner = 0;
      faults.slow_delay_us = 40;

      CollectingSink sink;
      EngineOptions options;
      options.num_joiners = 3;
      options.queue_capacity = 8;
      options.overload_policy = policy;
      options.shed_spill_capacity = 16;
      options.fault_injector = &faults;
      auto engine = CreateEngine(kind, q, options, &sink);
      ASSERT_TRUE(engine->Start().ok()) << label;
      WatermarkTracker tracker(q.lateness_us);
      uint64_t n = 0;
      for (const StreamEvent& ev : events) {
        tracker.Observe(ev.tuple.ts);
        engine->Push(ev, MonotonicNowUs());
        if (++n % 64 == 0) engine->SignalWatermark(tracker.watermark());
      }
      const EngineStats stats = engine->Finish();

      EXPECT_TRUE(stats.health.ok()) << label << ": " << stats.health.ToString();
      EXPECT_GT(stats.overload_dropped, 0u)
          << label << ": overload never engaged, stress is miscalibrated";
      for (const JoinResult& r : sink.TakeResults()) {
        const auto it =
            index.find(BaseKey{r.base.ts, r.base.key, r.base.payload});
        ASSERT_NE(it, index.end()) << label << ": unknown base tuple";
        EXPECT_LE(r.match_count, it->second.match_count) << label;
        EXPECT_LE(r.aggregate, it->second.aggregate + 1e-6) << label;
      }
    }
  }
}

TEST(StressTest, HeavyChurnScaleOijExact) {
  // Tight retention keeps the arena churning — insert, batch retire,
  // epoch drain, slab recycle — and results must stay exact throughout.
  WorkloadSpec w = StressWorkload(509);
  w.window = IntervalWindow{150, 0};
  QuerySpec q = StressQuery();
  q.window = w.window;
  const auto events = Generate(w);
  EngineOptions options;
  options.num_joiners = 3;
  ExpectExact(EngineKind::kScaleOij, events, q, options, 64, "heavy-churn");
}

TEST(StressTest, ScaleOijReportsArenaStatsKeyOijReportsNone) {
  const auto events = Generate(StressWorkload(510));
  const QuerySpec q = StressQuery();
  for (EngineKind kind : {EngineKind::kScaleOij, EngineKind::kKeyOij}) {
    const bool arenas = kind == EngineKind::kScaleOij;
    CollectingSink sink;
    EngineOptions options;
    options.num_joiners = 2;
    auto engine = CreateEngine(kind, q, options, &sink);
    ASSERT_TRUE(engine->Start().ok());
    WatermarkTracker tracker(q.lateness_us);
    uint64_t n = 0;
    for (const StreamEvent& ev : events) {
      tracker.Observe(ev.tuple.ts);
      engine->Push(ev, MonotonicNowUs());
      if (++n % 128 == 0) engine->SignalWatermark(tracker.watermark());
    }
    const EngineStats stats = engine->Finish();
    EXPECT_EQ(stats.mem.pooled, arenas) << EngineKindName(kind);
    if (arenas) {
      EXPECT_GT(stats.mem.arena_reserved_bytes, 0u);
      EXPECT_GT(stats.mem.arena_allocations, 0u);
    } else {
      EXPECT_EQ(stats.mem.arena_reserved_bytes, 0u);
      EXPECT_EQ(stats.mem.arena_allocations, 0u);
    }
  }
}

TEST(StressTest, ScaleOijMatchesPolicyReferenceUnderLateFlood) {
  // Differential exactness against the policy-aware oracle: late-tuple
  // gating, eviction, and chunked reclamation compose without changing
  // what is emitted.
  WorkloadSpec w = StressWorkload(511);
  w.late_flood_fraction = 0.15;
  w.late_flood_extra_us = 50;
  const auto events = Generate(w);
  QuerySpec q = StressQuery();
  q.late_policy = LatePolicy::kDropAndCount;
  const uint64_t wm_every = 7;
  auto expected = ReferenceJoinWithPolicy(events, q, wm_every);
  SortResults(&expected);

  CollectingSink sink;
  EngineOptions options;
  options.num_joiners = 3;
  auto engine = CreateEngine(EngineKind::kScaleOij, q, options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(q.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % wm_every == 0) engine->SignalWatermark(tracker.watermark());
  }
  engine->Finish();

  std::vector<ReferenceResult> got;
  for (const JoinResult& r : sink.TakeResults()) {
    got.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&got);
  ASSERT_EQ(got.size(), expected.size());
  size_t bad = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].match_count != expected[i].match_count) ++bad;
  }
  EXPECT_EQ(bad, 0u);
}

TEST(StressTest, SingleJoinerDegeneratesGracefully) {
  const auto events = Generate(StressWorkload(507));
  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij,
                          EngineKind::kSplitJoin}) {
    EngineOptions options;
    options.num_joiners = 1;
    options.num_partitions = 1;
    ExpectExact(kind, events, StressQuery(), options, 128,
                std::string("single-joiner/") +
                    std::string(EngineKindName(kind)));
  }
}

}  // namespace
}  // namespace oij
