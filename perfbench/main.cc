// oij_perfbench: the canonical benchmark program. run.py builds it and
// calls it; see README.md for the workloads and metrics.
//
//   oij_perfbench --workload <ingest|scan|serve|all> [--seed N]
//                 [--seconds S] [--trace 0|1] [--smoke]
//                 [--scratch DIR] [--spans PREFIX]
//
// Prints human-readable detail, then one JSON line per workload:
//   {"workload": ..., "correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {"<name>": {"value": v, "unit": u}, ...}}
// With --trace 0 the metrics are the end-to-end table below; with
// --trace 1 the per-layer table. A layer a workload does not exercise
// reads 0.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using perfbench::RunOptions;
using perfbench::WorkloadReport;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the two agree).
constexpr MetricDef kEndToEnd[] = {
    {"throughput_tps", "1/s"}, {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"stream.next_ns", "ns"},
    {"join.push_ns", "ns"},
    {"join.watermark_ns", "ns"},
    {"join.finish_ms", "ms"},
    {"join.ring_fill_mean", "frac"},
    {"join.ring_full_frac", "frac"},
    {"join.joiner_busy_frac", "frac"},
    {"join.unbalancedness", "cv"},
    {"join.rebalances", "count"},
    {"join.visited_per_op", "count"},
    {"join.matched_per_op", "count"},
    {"join.effectiveness", "frac"},
    {"join.evicted_tuples", "count"},
    {"join.peak_buffered_tuples", "count"},
    {"mem.arena_bytes", "B"},
    {"mem.allocs_per_tuple", "count"},
    {"mem.ebr_backlog", "count"},
    {"mem.rep_rss_growth_mb", "MB"},
    {"col.base_frac", "frac"},
    {"col.groups", "count"},
    {"col.fallbacks", "count"},
    {"serve.ingress_p50_us", "us"},
    {"serve.ingress_p99_us", "us"},
    {"serve.engine_p50_us", "us"},
    {"serve.engine_p99_us", "us"},
    {"serve.egress_p50_us", "us"},
    {"serve.egress_p99_us", "us"},
    {"net.send_ns_per_batch", "ns"},
    {"loadgen.lag_p99_us", "us"},
    {"server.bytes_in_per_tuple", "B"},
    {"server.bytes_out_per_result", "B"},
    {"server.frames_rejected", "count"},
    {"server.subscribers_evicted", "count"},
    {"wal.bytes_per_tuple", "B"},
    {"wal.fsyncs", "count"},
    {"wal.unsynced_records", "count"},
    {"trace.overhead_frac", "frac"},
    {"trace.unexplained_frac", "frac"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: oij_perfbench --workload <ingest|scan|serve|all> "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--scratch DIR] [--spans PREFIX]\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += perfbench::Format("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Prints the report's detail lines and its JSON line; false if the
/// workload produced a metric the tables do not list (a benchmark bug).
bool Print(const WorkloadReport& report, bool trace) {
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  bool known = true;
  std::string metrics;
  size_t listed = 0;
  auto emit = [&](const MetricDef& def) {
    auto it = report.metrics.find(def.name);
    double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    if (!metrics.empty()) metrics += ", ";
    metrics += perfbench::Format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                                 def.name, value, def.unit);
    if (it != report.metrics.end()) ++listed;
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  if (listed != report.metrics.size()) {
    std::fprintf(stderr, "%s: produced %zu metrics, only %zu are listed\n",
                 report.workload.c_str(), report.metrics.size(), listed);
    known = false;
  }
  const bool correct = report.checks_ok && report.failed == 0 && known;
  const double failed_frac =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("%s: failed_frac %.6g (%llu of %llu expected results)\n",
              report.workload.c_str(), failed_frac,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf(
      "{\"workload\": %s, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"metrics\": {%s}}\n",
      JsonString(report.workload).c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return known;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "oij_perfbench: built without optimization; refusing to "
               "report numbers (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  RunOptions opts;
  std::string workload;
  std::string spans_prefix;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      ++i;
      return value;
    };
    if (flag == "--smoke") {
      opts.smoke = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (flag == "--workload") {
      workload = take();
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(take(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(take());
    } else if (flag == "--trace") {
      const std::string t = take();
      if (t != "0" && t != "1") return Usage();
      opts.trace = t == "1";
    } else if (flag == "--scratch") {
      opts.scratch_dir = take();
    } else if (flag == "--spans") {
      spans_prefix = take();
    } else {
      return Usage();
    }
  }

  struct Entry {
    const char* name;
    WorkloadReport (*run)(const RunOptions&);
  };
  constexpr Entry kWorkloads[] = {{"ingest", perfbench::RunIngest},
                                  {"scan", perfbench::RunScan},
                                  {"serve", perfbench::RunServe}};
  bool any = false;
  bool ok = true;
  std::printf("{\"build\": {\"optimized\": true, \"ndebug\": %s, "
              "\"compiler\": %s}}\n",
#ifdef NDEBUG
              "true",
#else
              "false",
#endif
              JsonString(__VERSION__).c_str());
  for (const Entry& entry : kWorkloads) {
    if (workload != "all" && workload != entry.name) continue;
    any = true;
    RunOptions run_opts = opts;
    if (!spans_prefix.empty()) {
      run_opts.spans_path = spans_prefix + entry.name + ".tsv";
    }
    ok = Print(entry.run(run_opts), opts.trace) && ok;
  }
  if (!any) return Usage();
  return ok ? 0 : 1;
}
