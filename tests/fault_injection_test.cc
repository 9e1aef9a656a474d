// Fault-injection tests for the overload/fault-tolerance layer: stalled
// joiners must not hang Finish (watchdog escalation or the Finish
// deadline both release it), late-tuple floods must be counted exactly
// and identically by every engine and the reference replay, and the
// lossy backpressure policies must only ever *remove* matches relative
// to the reference join.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <thread>
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

WorkloadSpec BaseWorkload(uint64_t seed) {
  WorkloadSpec w;
  w.num_keys = 8;
  w.window = IntervalWindow{400, 0};
  w.lateness_us = 60;
  w.disorder_bound_us = 60;
  w.total_tuples = 20'000;
  w.seed = seed;
  return w;
}

QuerySpec BaseQuery() {
  QuerySpec q;
  q.window = IntervalWindow{400, 0};
  q.lateness_us = 60;
  q.emit_mode = EmitMode::kWatermark;
  return q;
}

/// Drives an engine exactly like the pipeline: push, then punctuate every
/// `wm_every` arrivals. Returns the merged stats.
EngineStats Drive(JoinEngine* engine, const std::vector<StreamEvent>& events,
                  Timestamp lateness_us, uint64_t wm_every) {
  WatermarkTracker tracker(lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    engine->Push(ev, MonotonicNowUs());
    tracker.Observe(ev.tuple.ts);
    if (wm_every > 0 && ++n % wm_every == 0) {
      engine->SignalWatermark(tracker.watermark());
    }
  }
  return engine->Finish();
}

/// Ground truth for the late-flood tests, computed independently of
/// LatenessGate: replay the arrival order, emit a watermark every
/// `wm_every` arrivals, and count tuples whose timestamp is below the
/// last *emitted* watermark at push time.
uint64_t CountLateArrivals(const std::vector<StreamEvent>& events,
                           Timestamp lateness_us, uint64_t wm_every) {
  WatermarkTracker tracker(lateness_us);
  Timestamp last_wm = kMinTimestamp;
  uint64_t late = 0;
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    if (last_wm != kMinTimestamp && ev.tuple.ts < last_wm) ++late;
    tracker.Observe(ev.tuple.ts);
    if (wm_every > 0 && ++n % wm_every == 0) {
      const Timestamp wm = tracker.watermark();
      if (wm > last_wm) last_wm = wm;
    }
  }
  return late;
}

using BaseKey = std::tuple<Timestamp, Key, double>;

std::map<BaseKey, ReferenceResult> IndexByBase(
    const std::vector<ReferenceResult>& results) {
  std::map<BaseKey, ReferenceResult> index;
  for (const ReferenceResult& r : results) {
    index.emplace(BaseKey{r.base.ts, r.base.key, r.base.payload}, r);
  }
  return index;
}

/// Every engine result must correspond to a reference result and carry at
/// most its matches/aggregate (valid for kSum over non-negative
/// payloads): a lossy policy may only *remove* probe tuples.
void ExpectSubsetOfReference(const std::vector<JoinResult>& got,
                             const std::vector<ReferenceResult>& reference,
                             const std::string& label) {
  const auto index = IndexByBase(reference);
  for (const JoinResult& r : got) {
    const auto it = index.find(BaseKey{r.base.ts, r.base.key, r.base.payload});
    ASSERT_NE(it, index.end()) << label << ": unknown base tuple";
    EXPECT_LE(r.match_count, it->second.match_count) << label;
    EXPECT_LE(r.aggregate, it->second.aggregate + 1e-6) << label;
  }
}

constexpr EngineKind kAllParallelEngines[] = {
    EngineKind::kKeyOij, EngineKind::kScaleOij, EngineKind::kSplitJoin,
    EngineKind::kSharedState};

// ---------------------------------------------------------------------------
// Stalled joiner: Finish must return (bounded) and report the failure.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, StalledJoinerAbortsViaWatchdog) {
  const auto events = Generate(BaseWorkload(601));
  for (EngineKind kind : kAllParallelEngines) {
    const std::string label(EngineKindName(kind));
    FaultInjector faults;
    faults.stalled_joiner = 0;
    faults.stall_after_events = 32;

    EngineOptions options;
    options.num_joiners = 3;
    options.queue_capacity = 64;
    options.fault_injector = &faults;
    options.watchdog.interval_ms = 20;
    options.watchdog.stall_intervals = 5;
    options.finish_timeout_us = 20'000'000;

    CountingSink sink;
    auto engine = CreateEngine(kind, BaseQuery(), options, &sink);
    ASSERT_TRUE(engine->Start().ok()) << label;

    const int64_t t0 = MonotonicNowUs();
    const EngineStats stats =
        Drive(engine.get(), events, BaseQuery().lateness_us, 64);
    const int64_t elapsed_us = MonotonicNowUs() - t0;

    EXPECT_EQ(stats.health.code(), Status::Code::kResourceExhausted)
        << label << ": " << stats.health.ToString();
    EXPECT_FALSE(stats.warnings.empty()) << label;
    // Watchdog fires after ~120 ms of stall; everything past the abort is
    // fast. Far below the 20 s finish timeout == the watchdog, not the
    // deadline, released the run.
    EXPECT_LT(elapsed_us, 15'000'000) << label;
  }
}

TEST(FaultInjectionTest, FinishDeadlineReleasesWedgedEngine) {
  // Watchdog off: the Finish deadline is the last line of defense.
  FaultInjector faults;
  faults.stalled_joiner = 0;
  faults.stall_after_events = 0;  // park before consuming anything

  EngineOptions options;
  options.num_joiners = 1;
  options.queue_capacity = 8;
  options.fault_injector = &faults;
  options.enable_watchdog = false;
  options.finish_timeout_us = 300'000;  // 300 ms

  const auto events = Generate(BaseWorkload(602));
  CountingSink sink;
  auto engine =
      CreateEngine(EngineKind::kKeyOij, BaseQuery(), options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  // Fewer events than ring capacity: the driver must not block either.
  for (size_t i = 0; i < 4; ++i) engine->Push(events[i], MonotonicNowUs());

  const int64_t t0 = MonotonicNowUs();
  const EngineStats stats = engine->Finish();
  const int64_t elapsed_us = MonotonicNowUs() - t0;

  EXPECT_EQ(stats.health.code(), Status::Code::kDeadlineExceeded)
      << stats.health.ToString();
  EXPECT_GE(elapsed_us, 250'000);
  EXPECT_LT(elapsed_us, 5'000'000);
}

// ---------------------------------------------------------------------------
// Late-tuple flood: counters must match the injected violation count
// exactly, for every engine and the reference replay.
// ---------------------------------------------------------------------------

struct LateFloodFixture {
  std::vector<StreamEvent> events;
  QuerySpec query;
  uint64_t wm_every = 7;
  uint64_t expected_late = 0;
  std::vector<ReferenceResult> full_reference;

  explicit LateFloodFixture(uint64_t seed) {
    WorkloadSpec w = BaseWorkload(seed);
    w.late_flood_fraction = 0.15;
    w.late_flood_extra_us = 50;
    events = Generate(w);
    query = BaseQuery();
    expected_late = CountLateArrivals(events, query.lateness_us, wm_every);
    full_reference = ReferenceJoin(events, query);
  }
};

TEST(FaultInjectionTest, LateFloodGeneratorProducesViolations) {
  const LateFloodFixture fix(611);
  // The flood knob must actually produce lateness violations under the
  // test cadence, or the assertions below would pass vacuously.
  EXPECT_GT(fix.expected_late, 100u);
  EXPECT_LT(fix.expected_late, fix.events.size());
}

TEST(FaultInjectionTest, LateFloodCountsMatchReferenceReplay) {
  const LateFloodFixture fix(611);
  for (LatePolicy policy : {LatePolicy::kDropAndCount,
                            LatePolicy::kSideChannel,
                            LatePolicy::kBestEffortJoin}) {
    QuerySpec q = fix.query;
    q.late_policy = policy;
    ReferenceRunStats stats;
    ReferenceJoinWithPolicy(fix.events, q, fix.wm_every, &stats);
    EXPECT_EQ(stats.late.tuples, fix.expected_late)
        << LatePolicyName(policy);
  }
}

TEST(FaultInjectionTest, LateFloodCountsExactAcrossEngines) {
  const LateFloodFixture fix(611);
  for (EngineKind kind : kAllParallelEngines) {
    for (LatePolicy policy : {LatePolicy::kDropAndCount,
                              LatePolicy::kSideChannel,
                              LatePolicy::kBestEffortJoin}) {
      const std::string label = std::string(EngineKindName(kind)) + "/" +
                                std::string(LatePolicyName(policy));
      QuerySpec q = fix.query;
      q.late_policy = policy;
      CollectingLateSink late_sink;
      EngineOptions options;
      options.num_joiners = 3;
      options.late_sink = &late_sink;
      CountingSink sink;
      auto engine = CreateEngine(kind, q, options, &sink);
      ASSERT_TRUE(engine->Start().ok()) << label;
      const EngineStats stats =
          Drive(engine.get(), fix.events, q.lateness_us, fix.wm_every);

      EXPECT_TRUE(stats.health.ok()) << label << stats.health.ToString();
      EXPECT_EQ(stats.late.tuples, fix.expected_late) << label;
      switch (policy) {
        case LatePolicy::kDropAndCount:
          EXPECT_EQ(stats.late.dropped, fix.expected_late) << label;
          EXPECT_EQ(stats.late.joined, 0u) << label;
          break;
        case LatePolicy::kSideChannel:
          EXPECT_EQ(stats.late.side_channel, fix.expected_late) << label;
          EXPECT_EQ(late_sink.TakeEvents().size(), fix.expected_late)
              << label;
          break;
        case LatePolicy::kBestEffortJoin:
          EXPECT_EQ(stats.late.joined, fix.expected_late) << label;
          EXPECT_EQ(stats.late.dropped, 0u) << label;
          break;
      }
      EXPECT_EQ(stats.late.base + stats.late.probe, fix.expected_late)
          << label;
    }
  }
}

TEST(FaultInjectionTest, DropAndCountMatchesPolicyReferenceExactly) {
  // Under kDropAndCount every engine must emit exactly the join of the
  // on-time subset — the policy-aware reference replay.
  const LateFloodFixture fix(611);
  QuerySpec q = fix.query;
  q.late_policy = LatePolicy::kDropAndCount;
  auto expected = ReferenceJoinWithPolicy(fix.events, q, fix.wm_every);
  SortResults(&expected);
  ASSERT_LT(expected.size(), fix.full_reference.size());  // bases dropped

  // kSharedState is excluded: the OpenMLDB-like baseline joins eagerly
  // with no disorder handling and is documented as approximate even on
  // a well-behaved stream, so exact equality is not its contract.
  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij,
                          EngineKind::kSplitJoin}) {
    const std::string label(EngineKindName(kind));
    CollectingSink sink;
    EngineOptions options;
    options.num_joiners = 3;
    auto engine = CreateEngine(kind, q, options, &sink);
    ASSERT_TRUE(engine->Start().ok()) << label;
    Drive(engine.get(), fix.events, q.lateness_us, fix.wm_every);

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
    // And (the acceptance phrasing) nothing the full reference would not
    // produce.
    ExpectSubsetOfReference(sink.TakeResults(), fix.full_reference, label);
  }
}

TEST(FaultInjectionTest, SideChannelDeliversExactlyTheLateTuples) {
  const LateFloodFixture fix(611);
  QuerySpec q = fix.query;
  q.late_policy = LatePolicy::kSideChannel;

  CollectingLateSink ref_sink;
  ReferenceJoinWithPolicy(fix.events, q, fix.wm_every, nullptr, &ref_sink);
  auto ref_late = ref_sink.TakeEvents();
  ASSERT_EQ(ref_late.size(), fix.expected_late);

  CollectingLateSink engine_sink;
  EngineOptions options;
  options.num_joiners = 3;
  options.late_sink = &engine_sink;
  CountingSink sink;
  auto engine = CreateEngine(EngineKind::kScaleOij, q, options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  Drive(engine.get(), fix.events, q.lateness_us, fix.wm_every);
  auto got_late = engine_sink.TakeEvents();

  ASSERT_EQ(got_late.size(), ref_late.size());
  // Both gates see the identical arrival order, so the diverted
  // sequences must agree element-wise.
  for (size_t i = 0; i < got_late.size(); ++i) {
    EXPECT_EQ(got_late[i].tuple, ref_late[i].tuple) << "index " << i;
    EXPECT_EQ(got_late[i].stream, ref_late[i].stream) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Overload policies under a slow joiner.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DropNewestShedsButStaysSubset) {
  WorkloadSpec w = BaseWorkload(621);
  w.total_tuples = 8'000;
  const auto events = Generate(w);
  const QuerySpec q = BaseQuery();
  const auto reference = ReferenceJoin(events, q);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij,
                          EngineKind::kSplitJoin}) {
    const std::string label =
        std::string("drop-newest/") + std::string(EngineKindName(kind));
    FaultInjector faults;
    faults.slow_joiner = 0;
    faults.slow_delay_us = 50;

    EngineOptions options;
    options.num_joiners = 2;
    options.queue_capacity = 8;
    options.overload_policy = OverloadPolicy::kDropNewest;
    options.fault_injector = &faults;

    CollectingSink sink;
    auto engine = CreateEngine(kind, q, options, &sink);
    ASSERT_TRUE(engine->Start().ok()) << label;
    const EngineStats stats = Drive(engine.get(), events, q.lateness_us, 64);

    EXPECT_TRUE(stats.health.ok()) << label << stats.health.ToString();
    EXPECT_GT(stats.overload_dropped, 0u) << label;
    ExpectSubsetOfReference(sink.TakeResults(), reference, label);
  }
}

TEST(FaultInjectionTest, ShedOldestShedsButStaysSubset) {
  WorkloadSpec w = BaseWorkload(622);
  w.total_tuples = 8'000;
  const auto events = Generate(w);
  const QuerySpec q = BaseQuery();
  const auto reference = ReferenceJoin(events, q);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    const std::string label =
        std::string("shed-oldest/") + std::string(EngineKindName(kind));
    FaultInjector faults;
    faults.slow_joiner = 0;
    faults.slow_delay_us = 50;

    EngineOptions options;
    options.num_joiners = 2;
    options.queue_capacity = 8;
    options.overload_policy = OverloadPolicy::kShedOldest;
    options.shed_spill_capacity = 16;
    options.fault_injector = &faults;

    CollectingSink sink;
    auto engine = CreateEngine(kind, q, options, &sink);
    ASSERT_TRUE(engine->Start().ok()) << label;
    const EngineStats stats = Drive(engine.get(), events, q.lateness_us, 64);

    EXPECT_TRUE(stats.health.ok()) << label << stats.health.ToString();
    EXPECT_GT(stats.overload_shed, 0u) << label;
    EXPECT_GE(stats.overload_dropped, stats.overload_shed) << label;
    ExpectSubsetOfReference(sink.TakeResults(), reference, label);
  }
}

TEST(FaultInjectionTest, BlockPolicyStaysExactUnderSlowJoiner) {
  WorkloadSpec w = BaseWorkload(623);
  w.total_tuples = 5'000;
  const auto events = Generate(w);
  const QuerySpec q = BaseQuery();
  auto expected = ReferenceJoin(events, q);
  SortResults(&expected);

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    const std::string label =
        std::string("block/") + std::string(EngineKindName(kind));
    FaultInjector faults;
    faults.slow_joiner = 0;
    faults.slow_delay_us = 20;

    EngineOptions options;
    options.num_joiners = 2;
    options.queue_capacity = 8;
    options.overload_policy = OverloadPolicy::kBlock;
    options.fault_injector = &faults;

    CollectingSink sink;
    auto engine = CreateEngine(kind, q, options, &sink);
    ASSERT_TRUE(engine->Start().ok()) << label;
    const EngineStats stats = Drive(engine.get(), events, q.lateness_us, 64);

    EXPECT_TRUE(stats.health.ok()) << label << stats.health.ToString();
    EXPECT_EQ(stats.overload_dropped, 0u) << label;

    std::vector<ReferenceResult> got;
    for (const JoinResult& r : sink.TakeResults()) {
      got.push_back({r.base, r.aggregate, r.match_count});
    }
    SortResults(&got);
    ASSERT_EQ(got.size(), expected.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].match_count, expected[i].match_count)
          << label << " result " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Watermark freeze.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, WatermarkFreezeWarns) {
  const auto events = Generate(BaseWorkload(631));
  FaultInjector faults;
  faults.freeze_watermarks_after = 2;

  EngineOptions options;
  options.num_joiners = 2;
  options.fault_injector = &faults;
  options.watchdog.interval_ms = 10;
  options.watchdog.watermark_freeze_intervals = 3;

  CountingSink sink;
  auto engine =
      CreateEngine(EngineKind::kKeyOij, BaseQuery(), options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(BaseQuery().lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    engine->Push(ev, MonotonicNowUs());
    tracker.Observe(ev.tuple.ts);
    if (++n % 64 == 0) engine->SignalWatermark(tracker.watermark());
    // Slow the feed enough for the watchdog to take several samples while
    // input advances and punctuation stays frozen.
    if (n % 500 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const EngineStats stats = engine->Finish();

  EXPECT_TRUE(stats.health.ok()) << stats.health.ToString();
  bool freeze_warned = false;
  for (const std::string& warning : stats.warnings) {
    if (warning.find("watermark frozen") != std::string::npos) {
      freeze_warned = true;
    }
  }
  EXPECT_TRUE(freeze_warned);
}

TEST(FaultInjectionTest, WatermarkFreezeAbortsWhenConfigured) {
  const auto events = Generate(BaseWorkload(632));
  FaultInjector faults;
  faults.freeze_watermarks_after = 2;

  EngineOptions options;
  options.num_joiners = 2;
  options.fault_injector = &faults;
  options.watchdog.interval_ms = 10;
  options.watchdog.watermark_freeze_intervals = 3;
  options.watchdog.abort_on_watermark_freeze = true;

  CountingSink sink;
  auto engine =
      CreateEngine(EngineKind::kKeyOij, BaseQuery(), options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(BaseQuery().lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    engine->Push(ev, MonotonicNowUs());
    tracker.Observe(ev.tuple.ts);
    if (++n % 64 == 0) engine->SignalWatermark(tracker.watermark());
    if (n % 500 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const EngineStats stats = engine->Finish();
  EXPECT_EQ(stats.health.code(), Status::Code::kDeadlineExceeded)
      << stats.health.ToString();
}

}  // namespace
}  // namespace oij
