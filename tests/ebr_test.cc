#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ebr/epoch_manager.h"

namespace oij {
namespace {

/// An intrusively-chained node for RetireBatch tests.
struct ChainNode {
  ChainNode* next = nullptr;
  int* freed_counter = nullptr;
};

void DrainChain(void* head, size_t count, void* /*ctx*/) {
  auto* n = static_cast<ChainNode*>(head);
  for (size_t i = 0; i < count; ++i) {
    ChainNode* next = n->next;
    ++*n->freed_counter;
    delete n;
    n = next;
  }
}

/// Builds a chain of `n` nodes, all bumping `counter` when drained.
ChainNode* MakeChain(int n, int* counter) {
  ChainNode* head = nullptr;
  for (int i = 0; i < n; ++i) {
    auto* node = new ChainNode{head, counter};
    head = node;
  }
  return head;
}

/// Retires a one-object run that bumps `counter` when drained.
void RetireOne(EpochManager& mgr, uint32_t slot, int* counter) {
  mgr.RetireBatch(slot, MakeChain(1, counter), 1, &DrainChain, nullptr);
}

TEST(EpochManagerTest, RegisterHandsOutDistinctSlots) {
  EpochManager mgr(4);
  EXPECT_EQ(mgr.RegisterThread(), 0u);
  EXPECT_EQ(mgr.RegisterThread(), 1u);
  EXPECT_EQ(mgr.RegisterThread(), 2u);
}

TEST(EpochManagerTest, ReaderInNewerEpochDoesNotBlockOldGarbage) {
  EpochManager mgr(4);
  const uint32_t writer = mgr.RegisterThread();
  const uint32_t reader = mgr.RegisterThread();

  int freed = 0;
  RetireOne(mgr, writer, &freed);

  // Reader enters *after* the retire: it pins the current (or newer)
  // epoch, so after two advances the old garbage is reclaimable even
  // while the reader stays active.
  for (int i = 0; i < 4; ++i) {
    mgr.Enter(reader);
    mgr.ReclaimSome(writer);
    mgr.Exit(reader);
  }
  EXPECT_EQ(freed, 1);
}

TEST(EpochManagerTest, ReclaimAllUnsafeFreesEverything) {
  EpochManager mgr(2);
  const uint32_t slot = mgr.RegisterThread();
  int freed = 0;
  for (int i = 0; i < 10; ++i) RetireOne(mgr, slot, &freed);
  EXPECT_EQ(mgr.ReclaimAllUnsafe(slot), 10u);
  EXPECT_EQ(freed, 10);
  EXPECT_EQ(mgr.PendingCount(slot), 0u);
}

TEST(EpochManagerTest, DestructorDrainsPending) {
  int freed = 0;
  {
    EpochManager mgr(2);
    const uint32_t slot = mgr.RegisterThread();
    RetireOne(mgr, slot, &freed);
  }
  EXPECT_EQ(freed, 1);
}

TEST(EpochManagerTest, GuardIsRaii) {
  EpochManager mgr(2);
  const uint32_t writer = mgr.RegisterThread();
  const uint32_t reader = mgr.RegisterThread();
  int freed = 0;
  {
    EpochGuard guard(mgr, reader);
    RetireOne(mgr, writer, &freed);
    for (int i = 0; i < 8; ++i) mgr.ReclaimSome(writer);
    EXPECT_EQ(freed, 0);
  }
  for (int i = 0; i < 8 && freed == 0; ++i) mgr.ReclaimSome(writer);
  EXPECT_EQ(freed, 1);
}

// ------------------------------------------------- chunked (batch) retire

TEST(EpochManagerTest, RetireBatchCountsAndDrainsWholeRun) {
  EpochManager mgr(2);
  const uint32_t slot = mgr.RegisterThread();
  int freed = 0;
  mgr.RetireBatch(slot, MakeChain(7, &freed), 7, &DrainChain, nullptr);
  EXPECT_EQ(mgr.PendingCount(slot), 7u) << "runs count member-wise";

  size_t total = 0;
  for (int i = 0; i < 4 && total == 0; ++i) total += mgr.ReclaimSome(slot);
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(freed, 7);
  EXPECT_EQ(mgr.PendingCount(slot), 0u);
}

TEST(EpochManagerTest, RetireBatchZeroCountIsNoop) {
  EpochManager mgr(2);
  const uint32_t slot = mgr.RegisterThread();
  mgr.RetireBatch(slot, nullptr, 0, &DrainChain, nullptr);
  EXPECT_EQ(mgr.PendingCount(slot), 0u);
  for (int i = 0; i < 4; ++i) mgr.ReclaimSome(slot);
}

TEST(EpochManagerTest, ActiveReaderBlocksBatchReclamation) {
  EpochManager mgr(4);
  const uint32_t writer = mgr.RegisterThread();
  const uint32_t reader = mgr.RegisterThread();

  mgr.Enter(reader);
  int freed = 0;
  mgr.RetireBatch(writer, MakeChain(3, &freed), 3, &DrainChain, nullptr);
  for (int i = 0; i < 8; ++i) mgr.ReclaimSome(writer);
  EXPECT_EQ(freed, 0) << "run drained while a reader was pinned";

  mgr.Exit(reader);
  for (int i = 0; i < 8 && freed == 0; ++i) mgr.ReclaimSome(writer);
  EXPECT_EQ(freed, 3);
}

TEST(EpochManagerTest, RunsDrainInRetireOrder) {
  // A run's chain may point into memory of a *later*-retired run (eviction
  // prefixes chain into the retained suffix, which may itself be evicted
  // next). FIFO drain order is the invariant that keeps that safe.
  EpochManager mgr(2);
  const uint32_t slot = mgr.RegisterThread();
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
    int id;
  };
  Ctx c1{&order, 1}, c2{&order, 2}, c3{&order, 3};
  auto drain = [](void*, size_t, void* ctx) {
    auto* c = static_cast<Ctx*>(ctx);
    c->order->push_back(c->id);
  };
  int dummy = 0;
  mgr.RetireBatch(slot, &dummy, 1, drain, &c1);
  mgr.RetireBatch(slot, &dummy, 2, drain, &c2);
  mgr.RetireBatch(slot, &dummy, 3, drain, &c3);
  EXPECT_EQ(mgr.PendingCount(slot), 6u);
  for (int i = 0; i < 8; ++i) mgr.ReclaimSome(slot);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

// Stress: batch-retiring chains while readers enter/exit; every node must
// drain exactly once and PendingCount must return to zero.
TEST(EpochManagerTest, ConcurrentBatchStress) {
  constexpr int kReaders = 3;
  constexpr int kRuns = 2000;
  constexpr int kRunLen = 9;
  EpochManager mgr(kReaders + 1);
  const uint32_t writer = mgr.RegisterThread();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<uint32_t> slots;
  for (int r = 0; r < kReaders; ++r) slots.push_back(mgr.RegisterThread());
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochGuard guard(mgr, slots[r]);
        std::this_thread::yield();
      }
    });
  }

  int freed = 0;
  for (int i = 0; i < kRuns; ++i) {
    mgr.RetireBatch(writer, MakeChain(kRunLen, &freed), kRunLen, &DrainChain,
                    nullptr);
    if ((i & 63) == 0) mgr.ReclaimSome(writer);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  for (int i = 0; i < 16; ++i) mgr.ReclaimSome(writer);
  mgr.ReclaimAllUnsafe(writer);
  EXPECT_EQ(freed, kRuns * kRunLen);
  EXPECT_EQ(mgr.PendingCount(writer), 0u);
}

}  // namespace
}  // namespace oij
