// Extension bench (paper future work: "incremental computing for
// non-invertible operators"): max() over resident key windows (delta
// gathers, one monotonic-deque pass per finalize) vs full recomputation,
// across window sizes.
//
// Expected shape: like Fig 16 but for a non-invertible operator — full
// recomputation collapses with window size while the incremental arm
// stays flat, at the cost of the resident window's memory.

#include <algorithm>

#include "bench_util.h"

using namespace oij;
using namespace oij::bench;

int main() {
  PrintTitle("Ext/two-stacks",
             "incremental max() (non-invertible) vs window size");
  std::printf("%-14s %18s %18s %14s\n", "window", "recompute",
              "incremental", "visits/op");

  for (Timestamp window : {1000LL, 10'000LL, 50'000LL, 100'000LL}) {
    WorkloadSpec w = DefaultSynthetic();
    w.window = IntervalWindow{window, 0};
    w.total_tuples = Scaled(std::max<uint64_t>(
        400'000, static_cast<uint64_t>(window) * 4));
    QuerySpec q = QueryFor(w, EmitMode::kEager, AggKind::kMax);

    EngineOptions options;
    options.num_joiners = 16;

    options.incremental_agg = false;
    const RunResult full = RunOnce(EngineKind::kScaleOij, w, q, options);
    options.incremental_agg = true;
    const RunResult inc = RunOnce(EngineKind::kScaleOij, w, q, options);

    const double visits_per_op =
        inc.stats.join_ops == 0
            ? 0.0
            : static_cast<double>(inc.stats.visited) /
                  static_cast<double>(inc.stats.join_ops);
    std::printf("%-14s %18s %18s %14.1f\n",
                HumanDurationUs(static_cast<double>(window)).c_str(),
                HumanRate(full.throughput_tps).c_str(),
                HumanRate(inc.throughput_tps).c_str(), visits_per_op);
    std::fflush(stdout);
  }
  return 0;
}
