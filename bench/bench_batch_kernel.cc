// Columnar batch-join kernel sweep (DESIGN.md §5h): throughput of the
// sweep/SIMD path against the per-base path (forced everywhere by
// EngineOptions::columnar_min_run = UINT32_MAX), as a function of the
// finalized batch size (bases released per watermark) and the
// distinct-key count.
//
// The driver pushes rounds of a probe-heavy mix — kProbesPerRound probe
// tuples spread across each round, then exactly `batch` base tuples, then
// one watermark releasing precisely that batch — so each drain hands the
// joiner `batch` ready bases, `batch / keys` of each key, and a key-group
// goes columnar once it reaches columnar_min_run (default 4). One
// joiner, so every key's bases share one drain; watermark emit mode, so
// push order inside a round cannot perturb results.
//
// Output: one human-readable block per (engine × keys) and one BENCHJSON
// line per (engine × keys × batch) that tools/bench_to_json.sh collects
// into BENCH_009.json. `speedup` is wall-clock (ingest + join);
// `kernel_speedup` isolates the join phase (lookup_ns + match_ns), which
// is what the columnar kernels replace.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace oij::bench {
namespace {

constexpr Timestamp kRound = 1000;         // time span of one round (us)
constexpr uint32_t kProbesPerRound = 128;  // modest ingest per round...
constexpr Timestamp kWindowPre = 8 * kRound;  // ...but wide windows:
// every base sees ~1024 in-window probes (probe-heavy where it matters —
// in the join), while both modes pay the same small ingest cost.

struct RunOutcome {
  double elapsed_s = 0;
  double kernel_s = 0;  ///< joiner-side lookup + match time
  uint64_t bases = 0;
  EngineStats stats;
};

RunOutcome DriveRounds(EngineKind kind, uint32_t keys, uint32_t batch,
                       bool columnar, uint64_t total_events) {
  QuerySpec query;
  query.window = IntervalWindow{kWindowPre, 0};
  query.lateness_us = 0;
  query.agg = AggKind::kSum;
  query.emit_mode = EmitMode::kWatermark;

  EngineOptions options;
  options.num_joiners = 1;  // the whole batch drains at one watermark
  if (!columnar) options.columnar_min_run = UINT32_MAX;
  options.enable_watchdog = false;

  NullSink sink;
  auto engine = CreateEngine(kind, query, options, &sink);
  if (!engine->Start().ok()) {
    std::fprintf(stderr, "engine start failed\n");
    return {};
  }

  // Constant events per run (not constant bases): small-batch rounds are
  // probe-dominated and large-batch rounds base-dominated, so sizing by
  // events keeps every configuration long enough to measure.
  const uint64_t rounds = std::max<uint64_t>(
      100, total_events / (kProbesPerRound + batch));
  int64_t arrival_us = 0;
  StreamEvent ev;

  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t r = 0; r < rounds; ++r) {
    const Timestamp start = static_cast<Timestamp>(r) * kRound;
    ev.stream = StreamId::kProbe;
    for (uint32_t i = 0; i < kProbesPerRound; ++i) {
      ev.tuple.ts = start + (static_cast<Timestamp>(i) * kRound) /
                                kProbesPerRound;
      ev.tuple.key = i % keys;
      ev.tuple.payload = static_cast<double>((i * 7) % 100) / 8.0;
      engine->Push(ev, ++arrival_us);
    }
    ev.stream = StreamId::kBase;
    for (uint32_t b = 0; b < batch; ++b) {
      ev.tuple.ts = start + (static_cast<Timestamp>(b) * kRound) / batch;
      ev.tuple.key = b % keys;
      ev.tuple.payload = 1.0;
      engine->Push(ev, ++arrival_us);
    }
    // Releases every base of this round (max base ts == the watermark),
    // nothing from the next (its tuples are strictly younger).
    engine->SignalWatermark(start + kRound - 1);
  }
  RunOutcome out;
  out.stats = engine->Finish();
  out.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  out.kernel_s = static_cast<double>(out.stats.breakdown.lookup_ns +
                                     out.stats.breakdown.match_ns) *
                 1e-9;
  out.bases = rounds * batch;
  return out;
}

void SweepEngine(EngineKind kind, uint32_t keys, uint64_t total_events) {
  PrintNote(std::string(EngineKindName(kind)) + ", " +
            std::to_string(keys) + " keys, " +
            std::to_string(kProbesPerRound) + " probes/round");
  std::printf("%8s %14s %14s %9s %9s %8s\n", "batch", "scalar b/s",
              "columnar b/s", "speedup", "kern spd", "groups");
  for (uint32_t batch : {1u, 4u, 16u, 64u, 256u}) {
    const RunOutcome scalar =
        DriveRounds(kind, keys, batch, /*columnar=*/false, total_events);
    const RunOutcome col =
        DriveRounds(kind, keys, batch, /*columnar=*/true, total_events);
    if (scalar.bases == 0 || col.bases == 0) continue;
    const double scalar_bps =
        static_cast<double>(scalar.bases) / scalar.elapsed_s;
    const double col_bps = static_cast<double>(col.bases) / col.elapsed_s;
    const double speedup = col_bps / scalar_bps;
    const double kernel_speedup =
        col.kernel_s > 0 ? scalar.kernel_s / col.kernel_s : 0.0;
    std::printf("%8u %14.0f %14.0f %8.2fx %8.2fx %8llu\n", batch,
                scalar_bps, col_bps, speedup, kernel_speedup,
                static_cast<unsigned long long>(
                    col.stats.columnar_groups));
    std::printf(
        "BENCHJSON {\"bench\":\"batch_kernel\",\"engine\":\"%s\","
        "\"keys\":%u,\"batch\":%u,\"bases\":%llu,"
        "\"probes_per_round\":%u,"
        "\"scalar_bases_per_sec\":%.0f,\"columnar_bases_per_sec\":%.0f,"
        "\"speedup\":%.3f,\"kernel_speedup\":%.3f,"
        "\"columnar_groups\":%llu,\"columnar_fallbacks\":%llu}\n",
        std::string(EngineKindName(kind)).c_str(), keys, batch,
        static_cast<unsigned long long>(col.bases), kProbesPerRound,
        scalar_bps, col_bps, speedup, kernel_speedup,
        static_cast<unsigned long long>(col.stats.columnar_groups),
        static_cast<unsigned long long>(col.stats.columnar_fallbacks));
  }
}

}  // namespace
}  // namespace oij::bench

int main() {
  using namespace oij;
  using namespace oij::bench;
  PrintTitle("batch_kernel",
             "columnar batch-join kernels vs scalar path (src/col/)");
  const uint64_t total_events = Scaled(2'000'000);
  for (const EngineKind kind :
       {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    for (const uint32_t keys : {4u, 32u}) {  // group sizes batch/4 … batch/32
      SweepEngine(kind, keys, total_events);
    }
  }
  return 0;
}
