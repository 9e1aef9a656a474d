// NUMA placement sweep (src/topo/, DESIGN.md §5i): Scale-OIJ throughput
// with joiner teams pinned per socket (`numa auto`) against the flat
// unpinned pool (`numa off`) and a deliberately bad interleaved map that
// stripes adjacent joiners across sockets — the configuration socket-
// blind scheduling converges to, and the one that maximizes cross-node
// index traffic.
//
// Workloads: the Fig-4 real presets A-D (unpaced, so the engine is the
// bottleneck) plus the skewed-rotating "churn" preset, whose migrating
// hot set keeps the rebalancer replicating partitions — the decision the
// topology-aware scheduler biases toward same-socket targets.
//
// On a single-node machine `auto` resolves an inactive plan and the off
// and auto columns must coincide (that degenerate equality is asserted
// by tests/topo_test.cc; here it just shows up as speedup 1.0x). The
// interleave column still exercises the explicit-map machinery there.
//
// Output: one table row per (workload × joiners) and one BENCHJSON line
// per (workload × joiners × mode) for tools/bench_to_json.sh
// (BENCH_010.json).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "topo/topology.h"

namespace oij::bench {
namespace {

/// Explicit joiner->cpu map striding adjacent joiners across nodes
/// (worst-case placement: every team straddles every socket).
std::vector<int> InterleavedMap(const Topology& topo, uint32_t joiners) {
  std::vector<int> map(joiners, -1);
  const size_t nn = topo.num_nodes();
  std::vector<size_t> cursor(nn, 0);
  for (uint32_t j = 0; j < joiners; ++j) {
    const size_t node = j % nn;
    const std::vector<int>& cpus = topo.nodes()[node].cpus;
    map[j] = cpus[cursor[node]++ % cpus.size()];
  }
  return map;
}

struct ModeResult {
  RunResult run;
  const char* mode = "";
};

ModeResult RunMode(const char* mode, const WorkloadSpec& w,
                   const QuerySpec& q, uint32_t joiners,
                   const Topology& topo) {
  EngineOptions options;
  options.num_joiners = joiners;
  if (std::string(mode) == "off") {
    options.numa.mode = NumaMode::kOff;
  } else if (std::string(mode) == "interleave") {
    options.numa.explicit_cpus = InterleavedMap(topo, joiners);
  }  // "auto": defaults
  ModeResult out;
  out.mode = mode;
  out.run = RunOnce(EngineKind::kScaleOij, w, q, options);
  return out;
}

void EmitJson(const std::string& workload, uint32_t joiners,
              const ModeResult& r) {
  const EngineStats& st = r.run.stats;
  std::printf(
      "BENCHJSON {\"bench\":\"numa_placement\",\"workload\":\"%s\","
      "\"mode\":\"%s\",\"joiners\":%u,\"throughput_tps\":%.0f,"
      "\"numa_active\":%s,\"nodes\":%u,"
      "\"cross_replications\":%llu,\"cross_dispatches\":%llu,"
      "\"rebalances\":%llu}\n",
      workload.c_str(), r.mode, joiners, r.run.throughput_tps,
      st.numa.active ? "true" : "false", st.numa.nodes,
      static_cast<unsigned long long>(st.numa.cross_replications),
      static_cast<unsigned long long>(st.numa.cross_dispatches),
      static_cast<unsigned long long>(st.rebalances));
}

void Sweep(const WorkloadSpec& base, const Topology& topo) {
  WorkloadSpec w = Unpaced(base);
  const QuerySpec q = QueryFor(base, EmitMode::kEager);
  for (uint32_t joiners : ThreadSweep()) {
    const ModeResult off = RunMode("off", w, q, joiners, topo);
    const ModeResult pinned = RunMode("auto", w, q, joiners, topo);
    const ModeResult inter = RunMode("interleave", w, q, joiners, topo);
    std::printf("%-10s %4u %14s %14s %14s %8.2fx\n", base.name.c_str(),
                joiners, HumanRate(off.run.throughput_tps).c_str(),
                HumanRate(pinned.run.throughput_tps).c_str(),
                HumanRate(inter.run.throughput_tps).c_str(),
                off.run.throughput_tps > 0
                    ? pinned.run.throughput_tps / off.run.throughput_tps
                    : 0.0);
    std::fflush(stdout);
    EmitJson(base.name, joiners, off);
    EmitJson(base.name, joiners, pinned);
    EmitJson(base.name, joiners, inter);
  }
}

}  // namespace
}  // namespace oij::bench

int main() {
  using namespace oij;
  using namespace oij::bench;
  PrintTitle("numa_placement",
             "socket-pinned joiner teams vs flat pool vs interleaved pins");
  const Topology topo = Topology::Detect();
  PrintNote("detected " + std::to_string(topo.num_nodes()) +
            " NUMA node(s), " + std::to_string(topo.num_cpus()) +
            " usable CPU(s)" + (topo.fallback() ? " [fallback]" : ""));
  PrintNote("throughput in input tuples/s; auto==off is expected on a "
            "single-node machine");

  std::printf("%-10s %4s %14s %14s %14s %9s\n", "workload", "j", "off",
              "auto", "interleave", "auto/off");

  for (WorkloadSpec w : RealWorkloads()) {
    w.total_tuples = Scaled(w.name == "B" ? 150'000 : 250'000);
    Sweep(w, topo);
  }
  // Churn mix: the rotating hot set forces continuous rebalancing, the
  // regime where same-socket replication preference matters most.
  WorkloadSpec churn = SkewedRotating();
  churn.name = "churn";
  churn.total_tuples = Scaled(250'000);
  Sweep(churn, topo);
  return 0;
}
