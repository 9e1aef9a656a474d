// Command-line front end for the library's operational tasks:
//
//   oij_cli run <workload.conf|preset> <engine> [joiners] [tuples]
//       Run a workload (a WorkloadSpecToConfig file or a preset name)
//       through an engine and print the run summary. Durability flags
//       (anywhere after `run`): --wal-dir <dir> logs the run to a
//       per-joiner WAL, --fsync <none|interval|per_batch> picks the
//       group-commit policy, --snapshot-every <n> snapshots the index
//       every n records, --recover replays the WAL before ingesting.
//       --numa <auto|off> controls NUMA placement (auto = pin joiner
//       teams per socket when >1 node is detected).
//   oij_cli config <preset>
//       Print a preset as an editable workload config file.
//   oij_cli trace-gen <workload.conf|preset> <out.trace[.csv]>
//       Materialize a workload's arrival sequence to a trace file
//       (binary, or CSV when the path ends in .csv).
//   oij_cli trace-info <trace[.csv]>
//       Inspect a trace: counts, event-time span, key cardinality,
//       measured disorder (= minimum exact lateness).
//   oij_cli trace-convert <in> <out>
//       Convert between binary and CSV traces (by file extension).
//   oij_cli trace-run <trace[.csv]> <workload.conf|preset> <engine> [joiners]
//       Replay a trace through an engine with the workload's window and
//       the trace's measured disorder as lateness.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "core/engine_factory.h"
#include "core/pipeline.h"
#include "core/run_summary.h"
#include "server/signal_stop.h"
#include "stream/presets.h"
#include "stream/trace.h"

namespace {

using namespace oij;

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Resolves a workload argument: preset name first, then a config file.
bool LoadWorkload(const std::string& arg, WorkloadSpec* out) {
  if (FindPreset(arg, out)) return true;
  const std::string text = ReadFileOrEmpty(arg);
  if (text.empty()) {
    std::fprintf(stderr, "no such preset or config file: %s\n",
                 arg.c_str());
    return false;
  }
  const Status s = WorkloadSpecFromConfig(text, out);
  if (!s.ok()) {
    std::fprintf(stderr, "bad config %s: %s\n", arg.c_str(),
                 s.ToString().c_str());
    return false;
  }
  return true;
}

Status LoadTrace(const std::string& path, std::vector<StreamEvent>* out) {
  return EndsWith(path, ".csv") ? ReadTraceCsv(path, out)
                                : ReadTrace(path, out);
}

Status StoreTrace(const std::string& path,
                  const std::vector<StreamEvent>& events) {
  return EndsWith(path, ".csv") ? WriteTraceCsv(path, events)
                                : WriteTrace(path, events);
}

std::vector<StreamEvent> Materialize(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

int CmdRun(int argc, char** argv) {
  // Peel the durability flags off wherever they appear; the rest stay
  // positional.
  EngineOptions options;
  bool recover = false;
  std::vector<char*> pos;
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--wal-dir") {
      const char* v = value();
      if (v == nullptr || *v == '\0') return 2;
      options.durability.wal_dir = v;
    } else if (flag == "--fsync") {
      const char* v = value();
      if (v == nullptr) return 2;
      const Status fs = FsyncPolicyFromName(v, &options.durability.fsync);
      if (!fs.ok()) {
        std::fprintf(stderr, "%s\n", fs.ToString().c_str());
        return 2;
      }
    } else if (flag == "--snapshot-every") {
      const char* v = value();
      if (v == nullptr || std::atoll(v) < 0) return 2;
      options.durability.snapshot_interval_records =
          static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--recover") {
      recover = true;
    } else if (flag == "--numa") {
      const char* v = value();
      if (v == nullptr) return 2;
      const Status ns = NumaModeFromName(v, &options.numa.mode);
      if (!ns.ok()) {
        std::fprintf(stderr, "%s\n", ns.ToString().c_str());
        return 2;
      }
    } else {
      pos.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(pos.size());
  argv = pos.data();
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: oij_cli run <workload> <engine> [joiners] "
                 "[tuples] [batch] [--wal-dir <dir>] [--fsync <policy>] "
                 "[--snapshot-every <n>] [--recover] [--numa <auto|off>]\n");
    return 2;
  }
  WorkloadSpec workload;
  if (!LoadWorkload(argv[0], &workload)) return 1;
  EngineKind kind;
  Status s = EngineKindFromName(argv[1], &kind);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  options.num_joiners = argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2]))
                                 : 4;
  if (argc > 3) {
    workload.total_tuples = static_cast<uint64_t>(std::atoll(argv[3]));
  }
  if (argc > 4) {
    // Router->joiner transport batch size; 1 = per-tuple transport.
    options.batch_size = static_cast<uint32_t>(std::atoi(argv[4]));
  }
  QuerySpec query;
  query.window = workload.window;
  query.lateness_us = workload.lateness_us;

  NullSink sink;
  auto engine = CreateEngine(kind, query, options, &sink);
  WorkloadGenerator gen(workload);
  PipelineConfig config;
  // SIGINT/SIGTERM stop the source and drain normally, so an interrupted
  // run still prints a consistent summary (and, with --wal-dir, a fully
  // synced log).
  config.stop = InstallStopSignalHandlers();
  config.recover = recover;
  const RunResult run = RunPipeline(engine.get(), &gen, config);
  if (config.stop->load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "interrupted: drained after %llu tuples\n",
                 static_cast<unsigned long long>(run.tuples));
  }
  std::printf("%s", SummarizeRun(argv[1], run).c_str());
  return 0;
}

int CmdConfig(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: oij_cli config <preset>\n");
    return 2;
  }
  WorkloadSpec workload;
  if (!FindPreset(argv[0], &workload)) {
    std::fprintf(stderr, "unknown preset: %s\n", argv[0]);
    return 1;
  }
  std::printf("%s", WorkloadSpecToConfig(workload).c_str());
  return 0;
}

int CmdTraceGen(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: oij_cli trace-gen <workload> <out>\n");
    return 2;
  }
  WorkloadSpec workload;
  if (!LoadWorkload(argv[0], &workload)) return 1;
  const auto events = Materialize(workload);
  const Status s = StoreTrace(argv[1], events);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu arrivals to %s\n", events.size(), argv[1]);
  return 0;
}

int CmdTraceInfo(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: oij_cli trace-info <trace>\n");
    return 2;
  }
  std::vector<StreamEvent> events;
  const Status s = LoadTrace(argv[0], &events);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  uint64_t bases = 0;
  Timestamp min_ts = kMaxTimestamp, max_ts = kMinTimestamp;
  std::set<Key> keys;
  for (const auto& e : events) {
    if (e.stream == StreamId::kBase) ++bases;
    min_ts = std::min(min_ts, e.tuple.ts);
    max_ts = std::max(max_ts, e.tuple.ts);
    keys.insert(e.tuple.key);
  }
  std::printf("arrivals:        %zu (%llu base / %zu probe)\n",
              events.size(), static_cast<unsigned long long>(bases),
              events.size() - bases);
  std::printf("event-time span: %s\n",
              events.empty()
                  ? "n/a"
                  : HumanDurationUs(static_cast<double>(max_ts - min_ts))
                        .c_str());
  std::printf("distinct keys:   %zu\n", keys.size());
  std::printf("disorder:        %lld us (minimum exact lateness)\n",
              static_cast<long long>(MeasureDisorder(events)));
  return 0;
}

int CmdTraceConvert(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: oij_cli trace-convert <in> <out>\n");
    return 2;
  }
  std::vector<StreamEvent> events;
  Status s = LoadTrace(argv[0], &events);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  s = StoreTrace(argv[1], events);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("converted %zu arrivals: %s -> %s\n", events.size(),
              argv[0], argv[1]);
  return 0;
}

int CmdTraceRun(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: oij_cli trace-run <trace> <workload> <engine> "
                 "[joiners]\n");
    return 2;
  }
  std::vector<StreamEvent> events;
  Status s = LoadTrace(argv[0], &events);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  WorkloadSpec workload;
  if (!LoadWorkload(argv[1], &workload)) return 1;
  EngineKind kind;
  s = EngineKindFromName(argv[2], &kind);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const Timestamp disorder = MeasureDisorder(events);
  QuerySpec query;
  query.window = workload.window;
  query.lateness_us = disorder;
  EngineOptions options;
  options.num_joiners = argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3]))
                                 : 4;
  NullSink sink;
  auto engine = CreateEngine(kind, query, options, &sink);
  TraceSource source(std::move(events), disorder);
  PipelineConfig config;
  config.stop = InstallStopSignalHandlers();
  const RunResult run =
      RunPipelineFrom(engine.get(), &source, /*pace=*/0, config);
  if (config.stop->load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "interrupted: drained after %llu tuples\n",
                 static_cast<unsigned long long>(run.tuples));
  }
  std::printf("%s", SummarizeRun(argv[2], run).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: oij_cli "
                 "<run|config|trace-gen|trace-info|trace-convert|trace-run> "
                 "...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  argc -= 2;
  argv += 2;
  if (cmd == "run") return CmdRun(argc, argv);
  if (cmd == "config") return CmdConfig(argc, argv);
  if (cmd == "trace-gen") return CmdTraceGen(argc, argv);
  if (cmd == "trace-info") return CmdTraceInfo(argc, argv);
  if (cmd == "trace-convert") return CmdTraceConvert(argc, argv);
  if (cmd == "trace-run") return CmdTraceRun(argc, argv);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
