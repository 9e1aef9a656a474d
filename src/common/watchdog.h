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

#include "common/engine_gauges.h"
#include "common/status.h"

namespace oij {

/// Cache-line-padded atomic counter. Joiner threads bump their own slot;
/// the watchdog samples all slots — padding keeps the writes from
/// false-sharing.
struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> value{0};
};

/// Adds `n` to a counter only one thread writes and others read: a
/// relaxed load and store, no read-modify-write.
inline void SingleWriterAdd(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

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

  /// Tuples lost to backpressure (`overload_shed` is the kShedOldest
  /// share) and control events lost to the stop token or a deadline.
  uint64_t overload_dropped = 0;
  uint64_t overload_shed = 0;
  uint64_t control_lost = 0;

  MemStats mem;
  NumaStats numa;
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
