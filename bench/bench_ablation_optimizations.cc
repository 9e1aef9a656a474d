// Ablation beyond the paper's figures: each Scale-OIJ optimization toggled
// independently on the Table IV workload restricted to few keys (the
// regime where all three matter), plus Key-OIJ as the no-optimization
// baseline. This isolates the contribution of
//   (1) the time-travel index        (engine choice: key-oij vs scale),
//   (2) the dynamic balanced schedule (options.dynamic_schedule),
//   (3) incremental aggregation       (options.incremental_agg).

#include "bench_util.h"

using namespace oij;
using namespace oij::bench;

int main() {
  PrintTitle("Ablation", "Scale-OIJ optimization matrix (u=5, |w|=10ms, "
                         "l=1ms, 16 joiners)");

  WorkloadSpec w = DefaultSynthetic();
  w.num_keys = 5;                       // skew for the scheduler
  w.window = IntervalWindow{10'000, 0};  // overlap for incremental
  w.lateness_us = 1000;                 // disorder for the index
  w.disorder_bound_us = 1000;
  w.total_tuples = Scaled(300'000);
  const QuerySpec q = QueryFor(w, EmitMode::kEager);

  std::printf("%-34s %14s %14s %14s\n", "variant", "throughput",
              "unbalanced", "effectiveness");

  struct Variant {
    const char* label;
    EngineKind kind;
    bool dynamic_schedule;
    bool incremental;
  };
  const Variant variants[] = {
      {"key-oij (baseline)", EngineKind::kKeyOij, false, false},
      {"index only", EngineKind::kScaleOij, false, false},
      {"index + dynamic-schedule", EngineKind::kScaleOij, true, false},
      {"index + incremental", EngineKind::kScaleOij, false, true},
      {"all (full scale-oij)", EngineKind::kScaleOij, true, true},
  };

  for (const Variant& v : variants) {
    EngineOptions options;
    options.num_joiners = 16;
    options.dynamic_schedule = v.dynamic_schedule;
    options.incremental_agg = v.incremental;
    options.rebalance_interval_events = 16384;
    const RunResult r = RunOnce(v.kind, w, q, options);
    std::printf("%-34s %14s %14.3f %14.3f\n", v.label,
                HumanRate(r.throughput_tps).c_str(),
                r.stats.ActualUnbalancedness(), r.stats.Effectiveness());
    std::fflush(stdout);
  }
  return 0;
}
