#ifndef OIJ_COMMON_WATCHDOG_H_
#define OIJ_COMMON_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace oij {

/// Cache-line-padded atomic counter. Joiner threads bump their own slot;
/// the watchdog samples all slots — padding keeps the writes from
/// false-sharing.
struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> value{0};
};

struct WatchdogConfig {
  /// Sampling period.
  int64_t interval_ms = 250;

  /// A joiner whose queue has a backlog but whose consumed counter has
  /// not moved for this many consecutive intervals is declared stalled
  /// (warning at half this count, abort at the full count).
  uint32_t stall_intervals = 40;

  /// Input advancing but watermarks frozen for this many consecutive
  /// intervals triggers a warning (and, optionally, an abort).
  uint32_t watermark_freeze_intervals = 120;

  /// Escalate a frozen watermark from warning to DeadlineExceeded abort.
  /// Off by default: a frozen source degrades liveness of results, not
  /// engine health, and many benchmarks legitimately never punctuate.
  bool abort_on_watermark_freeze = false;
};

/// One observation of engine progress, filled by the owner's sampler.
struct WatchdogSample {
  std::vector<size_t> queue_depths;  ///< per-joiner ring occupancy
  std::vector<uint64_t> consumed;    ///< per-joiner events processed
  uint64_t pushed = 0;               ///< router-side tuples accepted
  uint64_t watermarks = 0;           ///< watermarks actually signaled

  /// Allocator gauges, summed across joiner arenas (zero for engines
  /// without node arenas).
  uint64_t arena_bytes = 0;          ///< slab bytes reserved by the arenas
  uint64_t arena_live_nodes = 0;     ///< nodes resident in the arenas
  uint64_t ebr_retired_backlog = 0;  ///< nodes retired, awaiting epoch drain
  uint64_t arena_slab_recycles = 0;  ///< fully-dead slabs returned to pool

  /// NUMA placement gauges (src/topo/; all empty/zero when placement is
  /// inactive). Per-node arrays are indexed by node ordinal and split
  /// the arena gauges above by the owning joiner's node — grouped from
  /// per-arena counters, never by re-walking slabs.
  bool numa_active = false;
  uint32_t numa_nodes = 1;
  std::vector<int> numa_pin_cpus;          ///< per joiner; -1 = unpinned
  std::vector<uint32_t> numa_joiner_node;  ///< per joiner: node ordinal
  std::vector<uint64_t> per_node_arena_bytes;
  std::vector<uint64_t> per_node_arena_live_nodes;
  uint64_t numa_cross_replications = 0;
  uint64_t numa_cross_dispatches = 0;
};

/// Monitor thread that detects stalled joiners and frozen watermarks.
///
/// The watchdog owns no engine state: the owner supplies a sampler that
/// snapshots progress counters and an escalate callback invoked (once, on
/// the watchdog thread) when a stall crosses the abort threshold. The
/// callback is expected to record the Status and raise the engine's stop
/// token; the watchdog never touches threads directly.
class EngineWatchdog {
 public:
  using Sampler = std::function<WatchdogSample()>;
  using EscalateFn = std::function<void(const Status&)>;

  ~EngineWatchdog() { Stop(); }

  void Start(const WatchdogConfig& config, Sampler sampler,
             EscalateFn escalate);

  /// Idempotent; joins the monitor thread.
  void Stop();

  bool fired() const { return fired_.load(std::memory_order_acquire); }

  /// Drains accumulated warning lines (stall/freeze onset messages).
  std::vector<std::string> TakeWarnings();

 private:
  void Main();
  void Warn(std::string message);

  WatchdogConfig config_;
  Sampler sampler_;
  EscalateFn escalate_;

  std::thread thread_;
  std::mutex cv_mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  // guarded by cv_mu_

  std::mutex warnings_mu_;
  std::vector<std::string> warnings_;

  std::atomic<bool> fired_{false};
};

}  // namespace oij

#endif  // OIJ_COMMON_WATCHDOG_H_
