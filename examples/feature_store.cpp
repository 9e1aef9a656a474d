// A feature store's serving path: five features per browse event (sum,
// count, avg, min and max of the user's order amounts over the last
// 500 ms), each its own one-aggregate SQL query, served as standing
// queries over one shared Scale-OIJ index. Every order is inserted once,
// every feature keeps its own exact incremental state, and every result
// names its feature in JoinResult::query.
//
//   $ ./build/examples/feature_store

#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/engine_factory.h"
#include "join/watermark.h"
#include "sql/binder.h"

namespace {

constexpr const char* kFeatures[] = {"sum", "count", "avg", "min", "max"};
constexpr size_t kNumFeatures = std::size(kFeatures);

/// The feature vectors of a few browse events chosen before the run.
/// Joiners call OnResult concurrently; the set of rows never changes.
class FeatureTable : public oij::ResultSink {
 public:
  explicit FeatureTable(const std::vector<oij::Tuple>& watched) {
    for (const oij::Tuple& t : watched) rows_[{t.ts, t.key}].fill(NAN);
  }

  void OnResult(const oij::JoinResult& r) override {
    const auto it = rows_.find({r.base.ts, r.base.key});
    if (it == rows_.end()) return;
    std::lock_guard<std::mutex> lock(mu_);
    it->second[r.query] = r.aggregate;
  }

  void Print() const {
    for (const auto& [base, features] : rows_) {
      std::printf("  user=%2llu ts=%8lld ->",
                  static_cast<unsigned long long>(base.second),
                  static_cast<long long>(base.first));
      for (size_t q = 0; q < kNumFeatures; ++q) {
        std::printf(" %s=%.2f", kFeatures[q], features[q]);
      }
      std::printf("\n");
    }
  }

 private:
  std::map<std::pair<oij::Timestamp, oij::Key>,
           std::array<double, kNumFeatures>>
      rows_;
  std::mutex mu_;
};

}  // namespace

int main() {
  // One query per feature over the same window. The first is the
  // engine's primary query; the rest join it through the catalog.
  std::vector<oij::QuerySpec> specs(kNumFeatures);
  for (size_t q = 0; q < kNumFeatures; ++q) {
    const std::string sql =
        std::string("SELECT ") + kFeatures[q] + R"sql((amount) OVER w
      FROM actions WINDOW w AS (UNION orders PARTITION BY user_id ORDER BY
      ts ROWS_RANGE BETWEEN 500ms PRECEDING AND CURRENT ROW))sql";
    if (!oij::CompileQuery(sql, &specs[q]).ok()) return 1;
    specs[q].emit_mode = oij::EmitMode::kWatermark;  // exact results
  }

  // Browse events (base) and orders (probe) of 32 users, in event-time
  // order; every 20,000th browse event is watched.
  oij::Rng rng(4711);
  std::vector<oij::StreamEvent> events(200'000);
  std::vector<oij::Tuple> watched;
  oij::Timestamp ts = 0;
  uint64_t browses = 0;
  for (oij::StreamEvent& ev : events) {
    ts += 1 + static_cast<oij::Timestamp>(rng.NextBelow(20));
    ev.tuple.ts = ts;
    ev.tuple.key = rng.NextBelow(32);
    if (rng.NextBelow(2) == 0) {
      ev.stream = oij::StreamId::kBase;
      if (++browses % 20'000 == 0) watched.push_back(ev.tuple);
    } else {
      ev.stream = oij::StreamId::kProbe;
      ev.tuple.payload = 5.0 + rng.NextDouble() * 95.0;  // order amount
    }
  }

  FeatureTable table(watched);
  oij::EngineOptions options;
  options.num_joiners = 2;
  auto engine = oij::CreateEngine(oij::EngineKind::kScaleOij, specs[0],
                                  options, &table);
  oij::Status s = engine->Start();
  for (size_t q = 1; s.ok() && q < kNumFeatures; ++q) {
    s = engine->AddQuery(kFeatures[q], specs[q]);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  oij::WatermarkTracker tracker(specs[0].lateness_us);
  for (size_t i = 0; i < events.size(); ++i) {
    tracker.Observe(events[i].tuple.ts);
    engine->Push(events[i], oij::MonotonicNowUs());
    if ((i + 1) % 256 == 0) engine->SignalWatermark(tracker.watermark());
  }
  const oij::EngineStats stats = engine->Finish();

  std::printf("%zu standing queries over one index, window 500 ms\n",
              kNumFeatures);
  table.Print();
  bool ok = stats.health.ok();
  for (const oij::QueryStatsRow& row : engine->QuerySnapshot()) {
    const std::string_view agg = oij::AggKindName(row.spec.agg);
    std::printf("  [%u] %-5s %-5.*s results=%llu\n", row.ord,
                row.id.c_str(), static_cast<int>(agg.size()), agg.data(),
                static_cast<unsigned long long>(row.results));
    ok = ok && row.results == browses;  // one result per browse event
  }
  if (!ok) return 1;
  std::printf("served %zu features for each of %llu browse events\n",
              kNumFeatures, static_cast<unsigned long long>(browses));
  return 0;
}
