// col::KeyWindow, the resident window behind Scale-OIJ's incremental
// aggregation: seeded random finalizes (multi-source delta appends,
// trims, regressed and jumping windows, horizons above and below the
// bases, monotone slice sets) checked against a brute-force recompute
// for every operator, plus the non-finite fallback.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "col/key_window.h"
#include "col/sweep_merge.h"
#include "common/random.h"

namespace oij {
namespace {

/// One key's probes spread over several sources (team members), each a
/// ts-sorted index.
class Store {
 public:
  explicit Store(size_t sources) : sources_(sources) {}

  size_t num_sources() const { return sources_.size(); }

  void Add(size_t source, Timestamp ts, double payload) {
    sources_[source].emplace(ts, payload);
  }

  /// Gathers [from, hi] source by source: one sorted run each.
  void Gather(Timestamp from, Timestamp hi, col::ProbeColumns* out) const {
    for (const auto& source : sources_) {
      for (auto it = source.lower_bound(from);
           it != source.end() && it->first <= hi; ++it) {
        out->Append(it->first, it->second);
      }
    }
  }

  AggState Recompute(Timestamp lo, Timestamp hi) const {
    AggState agg;
    for (const auto& source : sources_) {
      for (auto it = source.lower_bound(lo);
           it != source.end() && it->first <= hi; ++it) {
        agg.Add(it->second);
      }
    }
    return agg;
  }

 private:
  std::vector<std::multimap<Timestamp, double>> sources_;
};

void ExpectAggEq(AggKind kind, const AggState& got, const AggState& want,
                 const std::string& where) {
  EXPECT_EQ(got.count, want.count) << where;
  const double g = got.Result(kind);
  const double w = want.Result(kind);
  if (std::isnan(w)) {
    EXPECT_TRUE(std::isnan(g)) << where;
  } else if (IsInvertible(kind)) {
    EXPECT_NEAR(g, w, 1e-9 * (1.0 + std::abs(w))) << where;
  } else {
    EXPECT_EQ(g, w) << where;
  }
}

/// Runs one finalize of the bases `base_ts` (ts-sorted) through `w`:
/// Begin, delta gather, Extend up to `horizon`, slices, Aggregate. Checks
/// the delta started at the carried end (or at a restart), that the span
/// holds exactly the store's probes it covers, and every aggregate.
void Finalize(AggKind kind, IntervalWindow window, const Store& store,
              Timestamp horizon, const std::vector<Timestamp>& base_ts,
              col::KeyWindow* w, const std::string& where) {
  const Timestamp lo = window.start_for(base_ts.front());
  const Timestamp hi = window.end_for(base_ts.back());
  const Timestamp old_start = w->start();
  const Timestamp old_end = w->end();
  const Timestamp from = w->Begin(lo);
  if (lo < old_start || old_end < lo - 1) {
    ASSERT_EQ(from, lo) << where << ": regressed or gapped window restarts";
  } else {
    ASSERT_EQ(from, old_end + 1) << where << ": delta starts past the end";
  }

  store.Gather(from, hi, w->delta());
  ASSERT_TRUE(w->Extend(std::min(hi, horizon))) << where;
  EXPECT_EQ(w->start(), lo) << where;
  EXPECT_EQ(w->end(), std::max(from - 1, std::min(hi, horizon))) << where;

  const col::ProbeSpan span = w->span();
  ASSERT_TRUE(std::is_sorted(span.ts, span.ts + span.size)) << where;
  ASSERT_EQ(span.size, store.Recompute(lo, std::max(from - 1, hi)).count)
      << where;

  std::vector<col::BaseSlice> slices(base_ts.size());
  col::ComputeWindowSlices(base_ts.data(), base_ts.size(), window, span.ts,
                           span.size, slices.data());
  std::vector<AggState> out(base_ts.size());
  std::vector<uint32_t> deque;
  w->Aggregate(kind, slices.data(), slices.size(), out.data(), &deque);
  for (size_t i = 0; i < base_ts.size(); ++i) {
    ExpectAggEq(kind, out[i],
                store.Recompute(window.start_for(base_ts[i]),
                                window.end_for(base_ts[i])),
                where + " base " + std::to_string(i));
  }
}

class KeyWindowPropertyTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(KeyWindowPropertyTest, MatchesRecomputeOnRandomFinalizes) {
  const AggKind kind = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 7919 + static_cast<uint64_t>(kind));
    const IntervalWindow window{
        static_cast<Timestamp>(1 + rng.NextBelow(400)),
        static_cast<Timestamp>(rng.NextBelow(100))};
    const Timestamp width = window.pre + window.fol + 1;
    Store store(1 + rng.NextBelow(4));
    col::KeyWindow w;
    Timestamp horizon = 0;  // no probe lands at or below it
    Timestamp next_base = window.pre;
    for (int step = 0; step < 400; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      // Probes arrive only above the horizon, in any source, with ties.
      for (uint64_t i = rng.NextBelow(3 * width / 8 + 2); i > 0; --i) {
        store.Add(rng.NextBelow(store.num_sources()),
                  horizon + 1 + static_cast<Timestamp>(rng.NextBelow(
                                    static_cast<uint64_t>(2 * width))),
                  std::round(rng.NextDouble() * 2000.0 - 1000.0) / 8.0);
      }

      // Bases mostly advance; some regress below the window, some jump
      // past its end.
      Timestamp b = next_base;
      switch (rng.NextBelow(10)) {
        case 0:
          b -= static_cast<Timestamp>(1 + rng.NextBelow(width));
          break;
        case 1:
          b += 2 * width;
          break;
        default:
          b += static_cast<Timestamp>(rng.NextBelow(width / 4 + 1));
      }
      std::vector<Timestamp> base_ts;
      for (uint64_t n = 1 + rng.NextBelow(6); n > 0; --n) {
        base_ts.push_back(b);
        b += static_cast<Timestamp>(rng.NextBelow(width / 6 + 1));
      }
      next_base = std::max(next_base, base_ts.front());

      // The horizon trails or leads the bases' window ends (eager and
      // watermark shapes), but never moves back.
      const Timestamp candidate =
          window.end_for(base_ts.back()) + width / 2 -
          static_cast<Timestamp>(rng.NextBelow(static_cast<uint64_t>(width)));
      horizon = std::max(horizon, candidate);

      Finalize(kind, window, store, horizon, base_ts, &w, where);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOperators, KeyWindowPropertyTest,
                         ::testing::Values(AggKind::kSum, AggKind::kCount,
                                           AggKind::kAvg, AggKind::kMin,
                                           AggKind::kMax),
                         [](const auto& info) {
                           return std::string(AggKindName(info.param));
                         });

TEST(KeyWindowTest, DeltaStartsPastTheCarriedEndAndTheTailIsReread) {
  Store store(2);
  for (Timestamp ts = 0; ts < 200; ++ts) store.Add(ts % 2, ts, 1.0);
  col::KeyWindow w;
  EXPECT_EQ(w.Begin(0), 0);
  store.Gather(0, 100, w.delta());
  ASSERT_TRUE(w.Extend(100));
  EXPECT_EQ(w.span().size, 101u);

  // Carry only through 120: 121..150 is a tail for this finalize.
  EXPECT_EQ(w.Begin(10), 101);
  store.Gather(101, 150, w.delta());
  ASSERT_TRUE(w.Extend(120));
  EXPECT_EQ(w.span().size, 141u);
  EXPECT_EQ(w.end(), 120);

  // The next finalize drops the tail and gathers from 121 again.
  EXPECT_EQ(w.Begin(20), 121);
  EXPECT_EQ(w.span().size, 101u);
}

TEST(KeyWindowTest, NonFinitePayloadsReportTheFallback) {
  const IntervalWindow window{20, 0};
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Store store(2);
    for (Timestamp ts = 0; ts < 200; ++ts) {
      store.Add(ts % 2, ts, static_cast<double>(ts % 7));
    }
    store.Add(1, 50, bad);
    col::KeyWindow w;
    // Below the bad probe: resident as usual.
    Finalize(AggKind::kMax, window, store, 40, {20, 40}, &w, "before");

    // The delta holds it: the fallback, and the window is left empty.
    store.Gather(w.Begin(window.start_for(45)), 60, w.delta());
    EXPECT_FALSE(w.Extend(60));
    EXPECT_EQ(w.span().size, 0u);
    EXPECT_EQ(w.Begin(30), 30) << "an emptied window restarts";

    // Once the bad probe is below every window start, resident again.
    Finalize(AggKind::kMin, window, store, 200, {71, 80, 90}, &w, "after");
  }
}

}  // namespace
}  // namespace oij
