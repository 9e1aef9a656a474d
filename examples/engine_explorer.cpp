// Interactive CLI around the library: pick a workload preset, an engine,
// and a thread count, and get the full run report. Useful for poking at
// regimes the fixed benches do not cover.
//
//   $ ./build/examples/engine_explorer [preset] [engine] [joiners] [tuples]
//   $ ./build/examples/engine_explorer A scale-oij 8 500000
//
// presets: A B C D default adversarial skewed
// engines: key-oij scale-oij split-join openmldb-like

#include <cstdio>
#include <cstdlib>

#include "core/engine_factory.h"
#include "core/pipeline.h"
#include "core/run_summary.h"
#include "stream/presets.h"

int main(int argc, char** argv) {
  const char* preset_name = argc > 1 ? argv[1] : "default";
  const char* engine_name = argc > 2 ? argv[2] : "scale-oij";
  const uint32_t joiners =
      argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3])) : 4;
  const uint64_t tuples =
      argc > 4 ? static_cast<uint64_t>(std::atoll(argv[4])) : 300'000;

  oij::WorkloadSpec workload;
  if (!oij::FindPreset(preset_name, &workload)) {
    std::fprintf(stderr,
                 "unknown preset '%s' (try: A B C D default adversarial "
                 "skewed)\n",
                 preset_name);
    return 1;
  }
  workload.total_tuples = tuples;

  oij::EngineKind kind;
  oij::Status s = oij::EngineKindFromName(engine_name, &kind);
  if (!s.ok()) {
    std::fprintf(stderr, "%s (try: key-oij scale-oij split-join "
                         "openmldb-like)\n",
                 s.ToString().c_str());
    return 1;
  }

  oij::QuerySpec query;
  query.window = workload.window;
  query.lateness_us = workload.lateness_us;
  query.emit_mode = oij::EmitMode::kEager;

  std::printf("workload %s: u=%llu |w|=%s l=%s rate=%s, %llu tuples\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(workload.num_keys),
              oij::HumanDurationUs(
                  static_cast<double>(workload.window.length()))
                  .c_str(),
              oij::HumanDurationUs(
                  static_cast<double>(workload.lateness_us))
                  .c_str(),
              workload.pace_rate_per_sec == 0
                  ? "unthrottled"
                  : oij::HumanRate(
                        static_cast<double>(workload.pace_rate_per_sec))
                        .c_str(),
              static_cast<unsigned long long>(tuples));

  oij::NullSink sink;
  oij::EngineOptions options;
  options.num_joiners = joiners;
  auto engine = oij::CreateEngine(kind, query, options, &sink);
  oij::WorkloadGenerator generator(workload);
  const oij::RunResult run = oij::RunPipeline(engine.get(), &generator);
  std::printf("%s", oij::SummarizeRun(engine_name, run).c_str());
  return 0;
}
