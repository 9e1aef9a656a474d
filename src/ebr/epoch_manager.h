#ifndef OIJ_EBR_EPOCH_MANAGER_H_
#define OIJ_EBR_EPOCH_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace oij {

/// Epoch-based memory reclamation (EBR).
///
/// The SWMR time-travel index lets a joiner's teammates traverse its
/// skip-lists lock-free while the owner inserts *and evicts*. Insertion is
/// safe by release/acquire publication alone (paper Algorithm 2), but
/// eviction must not free nodes a concurrent reader may still dereference.
/// EBR solves this: readers pin the global epoch while inside a read-side
/// critical section; a retired node is only freed once every pinned epoch
/// has moved past the epoch in which it was retired.
///
/// Usage:
///   - Each participating thread calls RegisterThread() once and keeps the
///     returned slot id.
///   - Readers wrap traversals in `EpochGuard guard(mgr, slot);`.
///   - The single writer calls RetireBatch() for each run of unlinked
///     nodes and ReclaimSome() periodically (both are cheap).
///
/// The implementation is the classic 3-epoch scheme: runs retired in epoch
/// e are safe to free once the global epoch has advanced to e + 2, because
/// any reader active during e has exited or observed a newer epoch.
class EpochManager {
 public:
  /// `max_threads` bounds the number of RegisterThread() calls.
  explicit EpochManager(uint32_t max_threads = 128);
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Claims a reader/writer slot. Thread-safe. Aborts if slots exhausted.
  uint32_t RegisterThread();

  /// Enters a read-side critical section on `slot`.
  void Enter(uint32_t slot);

  /// Leaves the read-side critical section on `slot`.
  void Exit(uint32_t slot);

  /// Typed drain callback for RetireBatch: walks `count` objects starting
  /// at `head` (chained however the caller likes — skip lists use the
  /// level-0 forward pointer) and frees each into `ctx`.
  using DrainFn = void (*)(void* head, size_t count, void* ctx);

  /// Schedules a whole run of `count` intrusively-chained objects to be
  /// drained once no reader can still observe them — one epoch-list
  /// append per run, no per-object callback, no heap churn. The chain must
  /// stay intact until the drain runs (readers may still be traversing
  /// it, which is the whole point). Runs are drained in retire order, so a
  /// chain whose tail points into a later-retired run is freed before that
  /// run. Must be called by the objects' single owner thread on its own
  /// slot (retire lists are slot-local by design). No-op when `count` is
  /// zero.
  void RetireBatch(uint32_t slot, void* head, size_t count, DrainFn drain,
                   void* ctx);

  /// Attempts to advance the global epoch and frees everything retired two
  /// or more epochs ago on `slot`. Returns the number of objects freed.
  size_t ReclaimSome(uint32_t slot);

  /// Frees everything on `slot` unconditionally. Only valid when no reader
  /// can be active (e.g., engine shutdown after joining all threads).
  size_t ReclaimAllUnsafe(uint32_t slot);

  uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Number of retired-but-not-yet-freed objects on `slot`. Counts run
  /// members individually. Safe from any thread (metrics sampling); the
  /// count is a relaxed-atomic gauge maintained by the owner.
  size_t PendingCount(uint32_t slot) const;

  /// Retired-but-not-yet-freed objects across all registered slots.
  /// Approximate under concurrency; intended for observability.
  size_t PendingCountAll() const;

 private:
  struct RetiredRun {
    void* head;
    size_t count;
    DrainFn drain;
    void* ctx;
    uint64_t epoch;
  };

  struct alignas(64) Slot {
    /// kQuiescent when outside a critical section, else pinned epoch.
    std::atomic<uint64_t> local_epoch{kQuiescent};
    std::atomic<bool> in_use{false};
    /// Object-count gauge mirroring retired_runs; written by the owner,
    /// readable by the metrics sampler.
    std::atomic<size_t> pending{0};
    std::vector<RetiredRun> retired_runs;  // accessed only by the owning thread
  };

  static constexpr uint64_t kQuiescent = ~0ULL;

  /// Advances the global epoch if every active slot has observed it.
  void TryAdvanceEpoch();

  std::atomic<uint64_t> global_epoch_{2};
  std::atomic<uint32_t> next_slot_{0};
  uint32_t max_threads_;
  std::vector<Slot> slots_;
};

/// RAII read-side critical section.
class EpochGuard {
 public:
  EpochGuard(EpochManager& mgr, uint32_t slot) : mgr_(mgr), slot_(slot) {
    mgr_.Enter(slot_);
  }
  ~EpochGuard() { mgr_.Exit(slot_); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager& mgr_;
  uint32_t slot_;
};

}  // namespace oij

#endif  // OIJ_EBR_EPOCH_MANAGER_H_
