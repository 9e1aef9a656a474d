#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "mem/node_arena.h"

namespace oij {
namespace {

constexpr size_t kSlab = NodeArena::kSlabBytes;

TEST(NodeArenaTest, ReturnsAlignedDistinctWritableBlocks) {
  NodeArena arena;
  std::set<void*> seen;
  for (size_t bytes : {1u, 15u, 16u, 17u, 48u, 64u, 168u, 256u}) {
    void* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % NodeArena::kGranule, 0u)
        << bytes << " bytes";
    EXPECT_TRUE(seen.insert(p).second) << "duplicate block";
    std::memset(p, 0xab, bytes);  // must be writable end to end
  }
}

TEST(NodeArenaTest, SizeClassesShareBlocksOnlyWithinClass) {
  // Blocks of one 16-byte class must be reusable across requests that
  // round to the same class, and a freed block is handed back LIFO.
  NodeArena arena;
  void* keeper = arena.Allocate(48);  // keeps the slab alive (non-empty)
  void* a = arena.Allocate(33);       // class 48
  arena.Deallocate(a, 33);
  void* b = arena.Allocate(41);  // also class 48
  EXPECT_EQ(a, b) << "freed block not reused within its class";

  void* c = arena.Allocate(49);  // class 64: different slab entirely
  EXPECT_NE(c, a);
  arena.Deallocate(c, 49);
  arena.Deallocate(b, 41);
  arena.Deallocate(keeper, 48);
}

TEST(NodeArenaTest, ExhaustionGrowsByWholeSlabs) {
  NodeArena arena;
  const size_t block = 64;
  // One slab holds < kSlab/block blocks (header overhead); allocating
  // 3x that many must grow reserved_bytes in whole-slab steps.
  const size_t n = 3 * (kSlab / block);
  std::vector<void*> blocks;
  for (size_t i = 0; i < n; ++i) blocks.push_back(arena.Allocate(block));

  const NodeArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.live_nodes, n);
  EXPECT_EQ(s.allocations, n);
  EXPECT_GE(s.reserved_bytes, 3 * kSlab);
  EXPECT_EQ(s.reserved_bytes % kSlab, 0u);

  for (void* p : blocks) arena.Deallocate(p, block);
  EXPECT_EQ(arena.snapshot().live_nodes, 0u);
}

TEST(NodeArenaTest, FullyDeadSlabIsRecycledAcrossClasses) {
  NodeArena arena;
  // Fill several slabs of class 160, then free everything: the slabs
  // must land in the empty pool (recycle counter) without returning
  // memory to the OS...
  const size_t n = 2 * (kSlab / 160);
  std::vector<void*> blocks;
  for (size_t i = 0; i < n; ++i) blocks.push_back(arena.Allocate(160));
  const uint64_t reserved = arena.snapshot().reserved_bytes;
  EXPECT_EQ(arena.EmptySlabCount(), 0u);

  for (void* p : blocks) arena.Deallocate(p, 160);
  const NodeArena::Stats after_free = arena.snapshot();
  EXPECT_GE(after_free.slab_recycles, 2u);
  EXPECT_EQ(after_free.reserved_bytes, reserved);
  EXPECT_GE(arena.EmptySlabCount(), 2u);

  // ...and a *different* size class must then be served from the pool
  // instead of growing the arena.
  const size_t m = kSlab / 32;
  std::vector<void*> small(m);
  for (size_t i = 0; i < m; ++i) small[i] = arena.Allocate(32);
  EXPECT_EQ(arena.snapshot().reserved_bytes, reserved)
      << "allocation grew the arena while recycled slabs sat idle";
  for (size_t i = 0; i < m; ++i) arena.Deallocate(small[i], 32);
}

TEST(NodeArenaTest, PartialFreeKeepsSlabServingItsClass) {
  NodeArena arena;
  const size_t n = kSlab / 48;  // more than one slab's worth of class 48
  std::vector<void*> blocks;
  for (size_t i = 0; i < n; ++i) blocks.push_back(arena.Allocate(48));
  // Free every other block; the slab stays partially live and its free
  // list must serve subsequent same-class allocations.
  for (size_t i = 0; i < n; i += 2) arena.Deallocate(blocks[i], 48);
  const uint64_t reserved = arena.snapshot().reserved_bytes;
  for (size_t i = 0; i < n; i += 2) blocks[i] = arena.Allocate(48);
  EXPECT_EQ(arena.snapshot().reserved_bytes, reserved);
  for (void* p : blocks) arena.Deallocate(p, 48);
}

TEST(NodeArenaTest, OversizeRequestsFallThroughToHeap) {
  NodeArena arena;
  void* p = arena.Allocate(4096);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xcd, 4096);
  const NodeArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.oversize_allocs, 1u);
  EXPECT_EQ(s.live_nodes, 1u);
  EXPECT_EQ(s.reserved_bytes, 0u) << "oversize must not consume slabs";
  arena.Deallocate(p, 4096);
  EXPECT_EQ(arena.snapshot().live_nodes, 0u);
}

TEST(NodeArenaTest, ChurnAtFixedPopulationStopsGrowing) {
  // Steady-state churn (the engine's regime: insert+evict at a fixed
  // window population) must reach a fixed memory footprint.
  NodeArena arena;
  constexpr size_t kPopulation = 1024;
  constexpr size_t kChurn = 50'000;
  std::vector<void*> window(kPopulation);
  for (size_t i = 0; i < kPopulation; ++i) window[i] = arena.Allocate(80);
  const uint64_t reserved = arena.snapshot().reserved_bytes;
  for (size_t i = 0; i < kChurn; ++i) {
    const size_t j = i % kPopulation;
    arena.Deallocate(window[j], 80);
    window[j] = arena.Allocate(80);
  }
  const NodeArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.reserved_bytes, reserved) << "churn leaked slabs";
  EXPECT_EQ(s.live_nodes, kPopulation);
  for (void* p : window) arena.Deallocate(p, 80);
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsanBuild = true;
#else
constexpr bool kAsanBuild = false;
#endif
#else
constexpr bool kAsanBuild = false;
#endif

uint64_t ReadWord(const void* p) {
  return *static_cast<const volatile uint64_t*>(p);
}

TEST(NodeArenaDeathTest, FreedBlocksAndRecycledSlabsTripAsan) {
  // ASan cannot see the arena recycle memory, so ASan builds poison
  // every byte the arena holds back: a read through a freed node (or
  // into a slab recycled to the empty pool) must report, not read stale
  // data.
  if (!kAsanBuild) GTEST_SKIP() << "needs an AddressSanitizer build";
  NodeArena arena;
  void* keeper = arena.Allocate(64);  // keeps the slab serving its class
  void* node = arena.Allocate(64);
  std::memset(node, 0x5a, 64);
  arena.Deallocate(node, 64);
  EXPECT_DEATH(ReadWord(static_cast<char*>(node) + 8), "use-after-poison");

  // Reuse hands the block back readable and writable end to end.
  void* again = arena.Allocate(64);
  ASSERT_EQ(again, node);
  std::memset(again, 0, 64);
  EXPECT_EQ(ReadWord(again), 0u);

  // Freeing the slab's last blocks recycles it whole; its data stays off
  // limits until a size class takes it again.
  arena.Deallocate(again, 64);
  arena.Deallocate(keeper, 64);
  ASSERT_EQ(arena.EmptySlabCount(), 1u);
  EXPECT_DEATH(ReadWord(static_cast<char*>(keeper) + 8), "use-after-poison");
}

}  // namespace
}  // namespace oij
