// Network front end: serves one join run behind a TCP port.
//
//   oij_server [flags]
//     --workload <preset|config>   query window/lateness source (default:
//                                  the "default" preset)
//     --sql "<query>"              compile the query from SQL instead
//     --engine <name>              key-oij|scale-oij|split-join|
//                                  openmldb-like (default scale-oij)
//     --joiners <n>                joiner threads (default 4)
//     --batch <n>                  router->joiner transport batch size
//     --emit <eager|watermark>     emit mode (default watermark: exact
//                                  results for any disorder within lateness)
//     --port <n>                   data port (default 0 = ephemeral)
//     --admin-port <n>             admin HTTP port (default 0 = ephemeral)
//     --bind <addr>                bind address (default 127.0.0.1)
//     --wal-dir <dir>              enable durability: per-joiner WAL +
//                                  snapshots under <dir>; on restart the
//                                  server recovers from it before serving
//     --fsync <none|interval|per_batch>
//                                  WAL group-commit policy (default
//                                  interval; per_batch = zero loss)
//     --fsync-interval-us <n>      max us between fsyncs (interval mode)
//     --snapshot-every <n>         snapshot the index every <n> appended
//                                  records (0 = never; log-only recovery)
//     --no-recover                 skip WAL replay on start (fresh run;
//                                  stale state in --wal-dir is discarded)
//     --recover-to-watermark       truncate recovery at the last watermark
//                                  durable on *every* shard, and advertise
//                                  the cut in the hello reply — with
//                                  --fsync per_batch this is what lets a
//                                  router replay the un-acked suffix
//                                  exactly once after kill -9
//     --numa <auto|off>            NUMA placement: auto (default) pins
//                                  joiner teams per socket and binds
//                                  arenas node-locally when >1 node is
//                                  detected; off restores the flat pool
//     --max-subscriber-backlog-mb <n>
//                                  evict a subscriber whose un-flushed
//                                  egress exceeds this (default 64)
//     --wal-short-write-prob <p>   disk-fault harness: probability a WAL
//                                  drain writes only a prefix (test only)
//     --wal-fsync-fail-prob <p>    disk-fault harness: probability an
//                                  fsync silently fails (test only)
//
// Clients speak the wire protocol of src/net/wire_codec.h on the data
// port (oij_loadgen is the reference client). The admin port answers
// GET /metrics, /healthz and /statz; during WAL replay /healthz reports
// 503 "recovering" and data tuples are rejected. SIGINT/SIGTERM drain
// gracefully: the run is finalized (FlushPending + Sync + Finish, so
// every accepted WAL byte reaches disk) and pending summaries are
// flushed before the process exits.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/run_summary.h"
#include "server/server.h"
#include "server/signal_stop.h"
#include "sql/binder.h"
#include "stream/presets.h"
#include "stream/workload.h"

namespace {

using namespace oij;

int Usage() {
  std::fprintf(
      stderr,
      "usage: oij_server [--workload <preset|config>] [--sql <query>]\n"
      "                  [--engine <name>] [--joiners <n>] [--batch <n>]\n"
      "                  [--emit <eager|watermark>] [--port <n>]\n"
      "                  [--admin-port <n>] [--bind <addr>]\n"
      "                  [--wal-dir <dir>] [--fsync <none|interval|"
      "per_batch>]\n"
      "                  [--fsync-interval-us <n>] [--snapshot-every <n>]\n"
      "                  [--no-recover] [--recover-to-watermark]\n"
      "                  [--numa <auto|off>]\n"
      "                  [--max-subscriber-backlog-mb <n>]\n");
  return 2;
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

bool ParsePort(const char* arg, uint16_t* out) {
  char* end = nullptr;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || v < 0 || v > 65535) return false;
  *out = static_cast<uint16_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  config.options.num_joiners = 4;
  config.query.emit_mode = EmitMode::kWatermark;
  std::string workload_arg = "default";
  std::string sql;
  // Disk-fault harness knobs; outlives the server (EngineOptions keeps a
  // pointer). Only wired in when a probability is set.
  static FaultInjector disk_faults;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--workload") {
      const char* v = value();
      if (v == nullptr) return Usage();
      workload_arg = v;
    } else if (flag == "--sql") {
      const char* v = value();
      if (v == nullptr) return Usage();
      sql = v;
    } else if (flag == "--engine") {
      const char* v = value();
      if (v == nullptr) return Usage();
      const Status s = EngineKindFromName(v, &config.engine);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 2;
      }
    } else if (flag == "--joiners") {
      const char* v = value();
      if (v == nullptr || std::atoi(v) <= 0) return Usage();
      config.options.num_joiners = static_cast<uint32_t>(std::atoi(v));
    } else if (flag == "--batch") {
      const char* v = value();
      if (v == nullptr || std::atoi(v) <= 0) return Usage();
      config.options.batch_size = static_cast<uint32_t>(std::atoi(v));
    } else if (flag == "--emit") {
      const char* v = value();
      if (v == nullptr) return Usage();
      if (std::string(v) == "eager") {
        config.query.emit_mode = EmitMode::kEager;
      } else if (std::string(v) == "watermark") {
        config.query.emit_mode = EmitMode::kWatermark;
      } else {
        return Usage();
      }
    } else if (flag == "--port") {
      const char* v = value();
      if (v == nullptr || !ParsePort(v, &config.data_port)) return Usage();
    } else if (flag == "--admin-port") {
      const char* v = value();
      if (v == nullptr || !ParsePort(v, &config.admin_port)) return Usage();
    } else if (flag == "--bind") {
      const char* v = value();
      if (v == nullptr) return Usage();
      config.bind_address = v;
    } else if (flag == "--wal-dir") {
      const char* v = value();
      if (v == nullptr || *v == '\0') return Usage();
      config.options.durability.wal_dir = v;
    } else if (flag == "--fsync") {
      const char* v = value();
      if (v == nullptr) return Usage();
      const Status s =
          FsyncPolicyFromName(v, &config.options.durability.fsync);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 2;
      }
    } else if (flag == "--fsync-interval-us") {
      const char* v = value();
      if (v == nullptr || std::atoll(v) <= 0) return Usage();
      config.options.durability.fsync_interval_us = std::atoll(v);
    } else if (flag == "--snapshot-every") {
      const char* v = value();
      if (v == nullptr || std::atoll(v) < 0) return Usage();
      config.options.durability.snapshot_interval_records =
          static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--numa") {
      const char* v = value();
      if (v == nullptr) return Usage();
      const Status s = NumaModeFromName(v, &config.options.numa.mode);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 2;
      }
    } else if (flag == "--no-recover") {
      config.recover = false;
    } else if (flag == "--recover-to-watermark") {
      config.options.durability.recover_to_watermark = true;
    } else if (flag == "--max-subscriber-backlog-mb") {
      const char* v = value();
      if (v == nullptr || std::atoll(v) <= 0) return Usage();
      config.max_subscriber_backlog_bytes =
          static_cast<size_t>(std::atoll(v)) << 20;
    } else if (flag == "--wal-short-write-prob") {
      const char* v = value();
      if (v == nullptr) return Usage();
      disk_faults.short_write_probability = std::atof(v);
    } else if (flag == "--wal-fsync-fail-prob") {
      const char* v = value();
      if (v == nullptr) return Usage();
      disk_faults.fsync_failure_probability = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return Usage();
    }
  }

  if (!sql.empty()) {
    const Status s = CompileQuery(sql, &config.query);
    if (!s.ok()) {
      std::fprintf(stderr, "bad --sql: %s\n", s.ToString().c_str());
      return 2;
    }
    // SQL fixes window/lateness/agg; keep the emit mode chosen above.
    config.query.emit_mode = EmitMode::kWatermark;
    config.workload_name = "sql";
  } else {
    WorkloadSpec workload;
    if (!FindPreset(workload_arg, &workload)) {
      const std::string text = ReadFileOrEmpty(workload_arg);
      if (text.empty()) {
        std::fprintf(stderr, "no such preset or config file: %s\n",
                     workload_arg.c_str());
        return 2;
      }
      const Status s = WorkloadSpecFromConfig(text, &workload);
      if (!s.ok()) {
        std::fprintf(stderr, "bad config %s: %s\n", workload_arg.c_str(),
                     s.ToString().c_str());
        return 2;
      }
    }
    config.query.window = workload.window;
    config.query.lateness_us = workload.lateness_us;
    config.workload_name = workload.name;
  }

  if (disk_faults.InjectsDiskFaults()) {
    config.options.fault_injector = &disk_faults;
  }

  OijServer server(config);
  const std::atomic<bool>* stop = InstallStopSignalHandlers();
  const Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("oij_server: engine=%s workload=%s\n",
              std::string(EngineKindName(config.engine)).c_str(),
              config.workload_name.c_str());
  std::printf("data port:  %u\n", server.data_port());
  std::printf("admin port: %u  (GET /metrics /healthz /statz)\n",
              server.admin_port());
  std::fflush(stdout);

  while (!stop->load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "signal received; draining\n");
  server.Shutdown();
  if (server.run_finished()) {
    const RunResult run = server.FinalRun();
    std::printf("%s", SummarizeRun(std::string(EngineKindName(config.engine)),
                                   run)
                          .c_str());
  }
  return 0;
}
