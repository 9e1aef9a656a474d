#include "core/run_summary.h"

#include <cstdio>

namespace oij {

namespace {
std::string Format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}
}  // namespace

std::string HumanRate(double per_second) {
  return HumanCount(per_second) + "/s";
}

std::string HumanCount(double count) {
  if (count >= 1e9) return Format("%.2fG", count / 1e9);
  if (count >= 1e6) return Format("%.2fM", count / 1e6);
  if (count >= 1e3) return Format("%.1fK", count / 1e3);
  return Format("%.0f", count);
}

std::string HumanDurationUs(double us) {
  if (us >= 1e6) return Format("%.2fs", us / 1e6);
  if (us >= 1e3) return Format("%.2fms", us / 1e3);
  return Format("%.0fus", us);
}

std::string SummarizeRun(const std::string& label, const RunResult& run) {
  const EngineStats& st = run.stats;
  std::string out;
  char buf[512];

  std::snprintf(buf, sizeof(buf),
                "[%s] %s tuples in %.2fs -> throughput %s\n", label.c_str(),
                HumanCount(static_cast<double>(run.tuples)).c_str(),
                run.elapsed_seconds, HumanRate(run.throughput_tps).c_str());
  out += buf;

  std::snprintf(
      buf, sizeof(buf),
      "  results=%s  latency p50=%s p90=%s p99=%s max=%s  <20ms=%.1f%%\n",
      HumanCount(static_cast<double>(st.results)).c_str(),
      HumanDurationUs(static_cast<double>(st.latency.Percentile(0.50)))
          .c_str(),
      HumanDurationUs(static_cast<double>(st.latency.Percentile(0.90)))
          .c_str(),
      HumanDurationUs(static_cast<double>(st.latency.Percentile(0.99)))
          .c_str(),
      HumanDurationUs(static_cast<double>(st.latency.max_us())).c_str(),
      st.latency.FractionBelow(20'000) * 100.0);
  out += buf;

  std::snprintf(
      buf, sizeof(buf),
      "  breakdown lookup=%.0f%% match=%.0f%% other=%.0f%%  "
      "visited/op=%.1f columnar=%.0f%%  "
      "effectiveness=%.3f  unbalancedness=%.3f  rebalances=%llu\n",
      st.breakdown.lookup_fraction() * 100.0,
      st.breakdown.match_fraction() * 100.0,
      st.breakdown.other_fraction() * 100.0,
      st.join_ops == 0 ? 0.0
                       : static_cast<double>(st.visited) /
                             static_cast<double>(st.join_ops),
      st.results == 0 ? 0.0
                      : static_cast<double>(st.columnar_bases) * 100.0 /
                            static_cast<double>(st.results),
      st.Effectiveness(),
      st.ActualUnbalancedness(),
      static_cast<unsigned long long>(st.rebalances));
  out += buf;

  // Memory management: only printed for engines that own node arenas.
  if (st.mem.pooled) {
    std::snprintf(
        buf, sizeof(buf),
        "  memory pooled-alloc arena=%sB live_nodes=%s allocs=%s "
        "slab_recycles=%llu retired_backlog=%llu\n",
        HumanCount(static_cast<double>(st.mem.arena_reserved_bytes)).c_str(),
        HumanCount(static_cast<double>(st.mem.arena_live_nodes)).c_str(),
        HumanCount(static_cast<double>(st.mem.arena_allocations)).c_str(),
        static_cast<unsigned long long>(st.mem.arena_slab_recycles),
        static_cast<unsigned long long>(st.mem.ebr_retired_backlog));
    out += buf;
  }

  // Delivery & degradation: only printed when a run was not pristine.
  if (!st.health.ok() || st.late.tuples > 0 || st.overload_dropped > 0 ||
      !st.warnings.empty()) {
    std::snprintf(
        buf, sizeof(buf),
        "  degradation health=%s  late=%llu (dropped=%llu side=%llu "
        "joined=%llu)  overload_dropped=%llu shed=%llu\n",
        st.health.ok() ? "OK" : st.health.ToString().c_str(),
        static_cast<unsigned long long>(st.late.tuples),
        static_cast<unsigned long long>(st.late.dropped),
        static_cast<unsigned long long>(st.late.side_channel),
        static_cast<unsigned long long>(st.late.joined),
        static_cast<unsigned long long>(st.overload_dropped),
        static_cast<unsigned long long>(st.overload_shed));
    out += buf;
    for (const std::string& w : st.warnings) {
      out += "  warning: " + w + "\n";
    }
  }
  return out;
}

}  // namespace oij
