#include "ebr/epoch_manager.h"

#include <cstdio>
#include <cstdlib>

namespace oij {

EpochManager::EpochManager(uint32_t max_threads)
    : max_threads_(max_threads), slots_(max_threads) {}

EpochManager::~EpochManager() {
  // Free any leftovers; by contract no readers are active at destruction.
  for (uint32_t s = 0; s < max_threads_; ++s) {
    if (slots_[s].in_use.load(std::memory_order_acquire)) {
      ReclaimAllUnsafe(s);
    }
  }
}

uint32_t EpochManager::RegisterThread() {
  uint32_t slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= max_threads_) {
    std::fprintf(stderr, "EpochManager: slot capacity %u exhausted\n",
                 max_threads_);
    std::abort();
  }
  slots_[slot].in_use.store(true, std::memory_order_release);
  return slot;
}

void EpochManager::Enter(uint32_t slot) {
  Slot& s = slots_[slot];
  // seq_cst so the pin is visible to the writer before we dereference
  // anything: a plain release store could be reordered after our loads.
  s.local_epoch.store(global_epoch_.load(std::memory_order_relaxed),
                      std::memory_order_seq_cst);
}

void EpochManager::Exit(uint32_t slot) {
  slots_[slot].local_epoch.store(kQuiescent, std::memory_order_release);
}

void EpochManager::RetireBatch(uint32_t slot, void* head, size_t count,
                               DrainFn drain, void* ctx) {
  if (count == 0) return;
  Slot& s = slots_[slot];
  s.retired_runs.push_back(
      {head, count, drain, ctx,
       global_epoch_.load(std::memory_order_acquire)});
  s.pending.fetch_add(count, std::memory_order_relaxed);
}

void EpochManager::TryAdvanceEpoch() {
  const uint64_t e = global_epoch_.load(std::memory_order_acquire);
  const uint32_t n = next_slot_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < n && i < max_threads_; ++i) {
    const uint64_t local = slots_[i].local_epoch.load(std::memory_order_seq_cst);
    if (local != kQuiescent && local < e) return;  // straggler
  }
  // Single increment; concurrent callers may both try, CAS keeps it exact.
  uint64_t expected = e;
  global_epoch_.compare_exchange_strong(expected, e + 1,
                                        std::memory_order_acq_rel);
}

size_t EpochManager::ReclaimSome(uint32_t slot) {
  TryAdvanceEpoch();
  const uint64_t e = global_epoch_.load(std::memory_order_acquire);
  Slot& s = slots_[slot];
  size_t freed = 0;
  // Runs are appended in epoch order, so the ripe ones form a prefix —
  // and draining front-to-back is what keeps chains that end inside a
  // later-retired run safe to walk.
  auto& runs = s.retired_runs;
  size_t drained = 0;
  while (drained < runs.size() && runs[drained].epoch + 2 <= e) {
    const RetiredRun& run = runs[drained];
    run.drain(run.head, run.count, run.ctx);
    freed += run.count;
    ++drained;
  }
  if (drained > 0) runs.erase(runs.begin(), runs.begin() + drained);
  if (freed > 0) s.pending.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

size_t EpochManager::ReclaimAllUnsafe(uint32_t slot) {
  Slot& s = slots_[slot];
  size_t freed = 0;
  for (const RetiredRun& run : s.retired_runs) {
    run.drain(run.head, run.count, run.ctx);
    freed += run.count;
  }
  s.retired_runs.clear();
  if (freed > 0) s.pending.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

size_t EpochManager::PendingCount(uint32_t slot) const {
  return slots_[slot].pending.load(std::memory_order_relaxed);
}

size_t EpochManager::PendingCountAll() const {
  const uint32_t n = next_slot_.load(std::memory_order_acquire);
  size_t total = 0;
  for (uint32_t i = 0; i < n && i < max_threads_; ++i) {
    total += slots_[i].pending.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace oij
