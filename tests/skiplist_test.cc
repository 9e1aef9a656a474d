#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "mem/node_arena.h"
#include "skiplist/swmr_skiplist.h"
#include "skiplist/time_travel_index.h"

namespace oij {
namespace {

// ----------------------------------------------------------- basic shape

TEST(SwmrSkipListTest, EmptyList) {
  NodeArena arena;
  SwmrSkipList<int64_t, int> list(arena);
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(list.Begin().Valid());
  EXPECT_FALSE(list.SeekGE(0).Valid());
  EXPECT_EQ(list.FindEqual(0), nullptr);
}

TEST(SwmrSkipListTest, InsertAndFind) {
  NodeArena arena;
  SwmrSkipList<int64_t, int> list(arena);
  list.Insert(5, 50);
  list.Insert(1, 10);
  list.Insert(3, 30);
  EXPECT_EQ(list.size(), 3u);
  ASSERT_NE(list.FindEqual(3), nullptr);
  EXPECT_EQ(*list.FindEqual(3), 30);
  EXPECT_EQ(list.FindEqual(2), nullptr);
  EXPECT_EQ(*list.FindEqual(1), 10);
  EXPECT_EQ(*list.FindEqual(5), 50);
}

TEST(SwmrSkipListTest, IterationIsSorted) {
  NodeArena arena;
  SwmrSkipList<int64_t, int> list(arena);
  Rng rng(11);
  std::multimap<int64_t, int> model;
  for (int i = 0; i < 2000; ++i) {
    const int64_t k = static_cast<int64_t>(rng.NextBelow(500));
    list.Insert(k, i);
    model.emplace(k, i);
  }
  int64_t prev = -1;
  size_t n = 0;
  for (auto it = list.Begin(); it.Valid(); it.Next()) {
    EXPECT_GE(it.key(), prev);
    prev = it.key();
    ++n;
  }
  EXPECT_EQ(n, model.size());
  EXPECT_EQ(list.size(), model.size());
}

TEST(SwmrSkipListTest, SeekGEFindsLowerBound) {
  NodeArena arena;
  SwmrSkipList<int64_t, int> list(arena);
  for (int64_t k : {10, 20, 30, 40}) list.Insert(k, static_cast<int>(k));
  EXPECT_EQ(list.SeekGE(5).key(), 10);
  EXPECT_EQ(list.SeekGE(10).key(), 10);
  EXPECT_EQ(list.SeekGE(11).key(), 20);
  EXPECT_EQ(list.SeekGE(40).key(), 40);
  EXPECT_FALSE(list.SeekGE(41).Valid());
}

TEST(SwmrSkipListTest, DuplicateKeysAllRetained) {
  NodeArena arena;
  SwmrSkipList<int64_t, int> list(arena);
  list.Insert(7, 1);
  list.Insert(7, 2);
  list.Insert(7, 3);
  EXPECT_EQ(list.size(), 3u);
  int count = 0;
  for (auto it = list.SeekGE(7); it.Valid() && it.key() == 7; it.Next()) {
    ++count;
  }
  EXPECT_EQ(count, 3);
}

// -------------------------------------------------------------- eviction

TEST(SwmrSkipListTest, EvictBeforeRemovesPrefixOnly) {
  NodeArena arena;
  SwmrSkipList<int64_t, int> list(arena);
  for (int64_t k = 0; k < 1000; ++k) list.Insert(k, static_cast<int>(k));
  EXPECT_EQ(arena.snapshot().live_nodes, 1001u);  // nodes + head
  // Without EBR, eviction frees straight back into the arena.
  EXPECT_EQ(list.EvictBefore(500), 500u);
  EXPECT_EQ(arena.snapshot().live_nodes, 501u);
  EXPECT_EQ(list.size(), 500u);
  EXPECT_EQ(list.Begin().key(), 500);
  EXPECT_EQ(list.FindEqual(499), nullptr);
  for (int64_t k = 500; k < 1000; ++k) {
    ASSERT_NE(list.FindEqual(k), nullptr);
    EXPECT_EQ(*list.FindEqual(k), static_cast<int>(k));
  }
  // Evicting again at the same bound is a no-op.
  EXPECT_EQ(list.EvictBefore(500), 0u);
  // Everything.
  EXPECT_EQ(list.EvictBefore(5000), 500u);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(arena.snapshot().live_nodes, 1u);
}

TEST(SwmrSkipListTest, EvictCallbackSeesRemovedEntries) {
  NodeArena arena;
  SwmrSkipList<int64_t, int> list(arena);
  for (int64_t k = 0; k < 10; ++k) list.Insert(k, static_cast<int>(k * 2));
  std::vector<int64_t> removed;
  list.EvictBefore(4, [&](const int64_t& k, const int& v) {
    removed.push_back(k);
    EXPECT_EQ(v, k * 2);
  });
  EXPECT_EQ(removed, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(SwmrSkipListTest, EvictWithEbrRetiresOneRunAndDefersFree) {
  NodeArena arena;  // outlives `ebr`, which drains into it
  EpochManager ebr(2);
  const uint32_t writer = ebr.RegisterThread();
  const uint32_t reader = ebr.RegisterThread();
  SwmrSkipList<int64_t, int> list(arena, &ebr, writer);
  for (int64_t k = 0; k < 10; ++k) list.Insert(k, 0);
  const uint64_t live_before = arena.snapshot().live_nodes;

  ebr.Enter(reader);
  EXPECT_EQ(list.EvictBefore(5), 5u);
  // One run, counted member-wise; nothing returns to the arena while the
  // reader is pinned.
  EXPECT_EQ(ebr.PendingCount(writer), 5u);
  EXPECT_EQ(arena.snapshot().live_nodes, live_before);
  ebr.Exit(reader);
  for (int i = 0; i < 8 && ebr.PendingCount(writer) > 0; ++i) {
    ebr.ReclaimSome(writer);
  }
  EXPECT_EQ(ebr.PendingCount(writer), 0u);
  EXPECT_EQ(arena.snapshot().live_nodes, live_before - 5);
}

TEST(SwmrSkipListTest, ChurnReachesFixedFootprint) {
  // Steady-state insert+evict must recycle arena memory, not grow it.
  NodeArena arena;
  EpochManager ebr(1);
  const uint32_t writer = ebr.RegisterThread();
  SwmrSkipList<int64_t, int64_t> list(arena, &ebr, writer);
  constexpr int64_t kWindow = 4096;
  for (int64_t k = 0; k < kWindow; ++k) list.Insert(k, k);
  // Let the first full window settle (epochs drain), then measure.
  for (int i = 0; i < 8; ++i) ebr.ReclaimSome(writer);
  uint64_t reserved_baseline = 0;
  for (int64_t k = kWindow; k < 20 * kWindow; ++k) {
    list.Insert(k, k);
    if ((k & 255) == 0) {
      list.EvictBefore(k - kWindow);
      ebr.ReclaimSome(writer);
      if (k == 4 * kWindow) {
        reserved_baseline = arena.snapshot().reserved_bytes;
      }
    }
  }
  ASSERT_GT(reserved_baseline, 0u);
  // Allow one slab of slack per size class for freelist skew.
  EXPECT_LE(arena.snapshot().reserved_bytes,
            reserved_baseline + 4 * NodeArena::kSlabBytes)
      << "steady-state churn kept growing the arena";
  // Collapse the window: emptied slabs must return to the arena pool.
  list.EvictBefore(std::numeric_limits<int64_t>::max());
  ebr.ReclaimAllUnsafe(writer);
  EXPECT_GT(arena.snapshot().slab_recycles, 0u);
}

TEST(SwmrSkipListTest, RandomWorkloadMatchesModel) {
  // Mirror random inserts and prefix evictions against a multimap model.
  NodeArena arena;
  SwmrSkipList<int64_t, int> list(arena, /*ebr=*/nullptr, 0, 0x1234);
  std::multimap<int64_t, int> model;
  Rng rng(77);
  int64_t floor = 0;
  for (int i = 0; i < 20000; ++i) {
    const int64_t k =
        floor + static_cast<int64_t>(rng.NextBelow(2000));
    list.Insert(k, i);
    model.emplace(k, i);
    if (rng.NextBelow(64) == 0) {
      floor += static_cast<int64_t>(rng.NextBelow(200));
      const size_t removed = list.EvictBefore(floor);
      const auto end = model.lower_bound(floor);
      const size_t model_removed =
          static_cast<size_t>(std::distance(model.begin(), end));
      model.erase(model.begin(), end);
      EXPECT_EQ(removed, model_removed);
    }
  }
  EXPECT_EQ(list.size(), model.size());
  auto mit = model.begin();
  for (auto it = list.Begin(); it.Valid(); it.Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key(), mit->first);
  }
}

// ------------------------------------------------- SWMR concurrency laws

// A reader hammering lookups while a single writer inserts ascending keys
// must never observe a torn node or miss a key it already saw published.
TEST(SwmrSkipListTest, SingleWriterReaderStress) {
  NodeArena arena;
  SwmrSkipList<int64_t, int64_t> list(arena);
  constexpr int64_t kN = 30000;
  std::atomic<int64_t> published{-1};
  std::atomic<bool> failed{false};

  std::thread reader([&] {
    Rng rng(99);
    while (published.load(std::memory_order_acquire) < kN - 1) {
      const int64_t upto = published.load(std::memory_order_acquire);
      if (upto < 0) continue;
      const int64_t probe =
          static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(upto) + 1));
      const int64_t* v = list.FindEqual(probe);
      if (v == nullptr || *v != probe * 3) {
        failed.store(true);
        return;
      }
    }
  });

  for (int64_t k = 0; k < kN; ++k) {
    list.Insert(k, k * 3);
    published.store(k, std::memory_order_release);
  }
  reader.join();
  EXPECT_FALSE(failed.load());
}

// Readers scanning ranges while the writer inserts, evicts whole runs
// through RetireBatch, and recycles arena slabs: scans must stay
// well-formed (sorted, within bounds) and memory must stay valid.
TEST(SwmrSkipListTest, EvictionConcurrentWithReaders) {
  NodeArena arena;
  EpochManager ebr(3);
  const uint32_t writer = ebr.RegisterThread();
  SwmrSkipList<int64_t, int64_t> list(arena, &ebr, writer);

  std::atomic<int64_t> head{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  auto reader_fn = [&](uint32_t slot) {
    while (!stop.load(std::memory_order_relaxed)) {
      EpochGuard guard(ebr, slot);
      const int64_t lo = head.load(std::memory_order_acquire);
      int64_t prev = -1;
      int64_t n = 0;
      for (auto it = list.SeekGE(lo); it.Valid() && n < 64; it.Next(), ++n) {
        if (it.key() < prev || it.value() != it.key() * 7) {
          failed.store(true);
          return;
        }
        prev = it.key();
      }
    }
  };
  std::thread r1(reader_fn, ebr.RegisterThread());
  std::thread r2(reader_fn, ebr.RegisterThread());

  for (int64_t k = 0; k < 50000; ++k) {
    list.Insert(k, k * 7);
    if ((k & 1023) == 0 && k > 2000) {
      const int64_t bound = k - 2000;
      list.EvictBefore(bound);
      head.store(bound, std::memory_order_release);
      ebr.ReclaimSome(writer);
    }
  }
  stop.store(true);
  r1.join();
  r2.join();
  EXPECT_FALSE(failed.load());
  // No readers left: collapse the window and drain; emptied slabs must
  // return to the arena pool.
  list.EvictBefore(std::numeric_limits<int64_t>::max());
  ebr.ReclaimAllUnsafe(writer);
  EXPECT_GT(arena.snapshot().slab_recycles, 0u);
}

// ------------------------------------------------------ TimeTravelIndex

TEST(TimeTravelIndexTest, InsertAndRangeScan) {
  NodeArena arena;
  TimeTravelIndex index(arena);
  for (Timestamp ts = 0; ts < 100; ++ts) {
    index.Insert(Tuple{ts, /*key=*/ts % 3, static_cast<double>(ts)});
  }
  EXPECT_EQ(index.size(), 100u);
  EXPECT_EQ(index.key_count(), 3u);

  // Key 0 holds ts = 0,3,...,99; range [30, 60] -> 30,33,...,60.
  std::vector<Timestamp> seen;
  const size_t visited = index.ForEachInRange(
      0, 30, 60, [&](const Tuple& t) { seen.push_back(t.ts); });
  EXPECT_EQ(visited, seen.size());
  ASSERT_EQ(seen.size(), 11u);
  EXPECT_EQ(seen.front(), 30);
  EXPECT_EQ(seen.back(), 60);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i] - seen[i - 1], 3);
  }
}

TEST(TimeTravelIndexTest, UnknownKeyScansNothing) {
  NodeArena arena;
  TimeTravelIndex index(arena);
  index.Insert(Tuple{1, 1, 1.0});
  size_t calls = 0;
  EXPECT_EQ(index.ForEachInRange(99, 0, 100, [&](const Tuple&) { ++calls; }),
            0u);
  EXPECT_EQ(calls, 0u);
}

TEST(TimeTravelIndexTest, InclusiveBoundaries) {
  NodeArena arena;
  TimeTravelIndex index(arena);
  index.Insert(Tuple{10, 5, 1.0});
  index.Insert(Tuple{20, 5, 2.0});
  size_t n = index.ForEachInRange(5, 10, 20, [](const Tuple&) {});
  EXPECT_EQ(n, 2u);
  n = index.ForEachInRange(5, 11, 19, [](const Tuple&) {});
  EXPECT_EQ(n, 0u);
}

TEST(TimeTravelIndexTest, EvictBeforeAcrossKeys) {
  NodeArena arena;
  TimeTravelIndex index(arena);
  for (Timestamp ts = 0; ts < 90; ++ts) {
    index.Insert(Tuple{ts, ts % 3, 0.0});
  }
  EXPECT_EQ(index.EvictBefore(45), 45u);
  EXPECT_EQ(index.size(), 45u);
  // All three keys retain only ts >= 45.
  for (Key k = 0; k < 3; ++k) {
    index.ForEachInRange(k, kMinTimestamp + 1, kMaxTimestamp,
                         [&](const Tuple& t) { EXPECT_GE(t.ts, 45); });
  }
}

TEST(TimeTravelIndexTest, DuplicateTimestampsSameKey) {
  NodeArena arena;
  TimeTravelIndex index(arena);
  index.Insert(Tuple{7, 1, 1.0});
  index.Insert(Tuple{7, 1, 2.0});
  double sum = 0;
  const size_t n =
      index.ForEachInRange(1, 7, 7, [&](const Tuple& t) { sum += t.payload; });
  EXPECT_EQ(n, 2u);
  EXPECT_DOUBLE_EQ(sum, 3.0);
}

TEST(TimeTravelIndexTest, FindLayerExposesSecondLevel) {
  NodeArena arena;
  TimeTravelIndex index(arena);
  EXPECT_EQ(index.FindLayer(4), nullptr);
  index.Insert(Tuple{1, 4, 0.0});
  auto* layer = index.FindLayer(4);
  ASSERT_NE(layer, nullptr);
  EXPECT_EQ(layer->size(), 1u);
}

// The MRU insert fast path must never serve a stale layer: a layer that
// was cached, then fully evicted, is still the live layer for its key, so
// bursty re-inserts through the cache must land where readers look.
TEST(TimeTravelIndexTest, MruCachedThenEvictedLayerIsNeverStale) {
  NodeArena arena;
  TimeTravelIndex index(arena);
  // Prime the cache with a burst on key 5.
  for (Timestamp ts = 0; ts < 50; ++ts) index.Insert(Tuple{ts, 5, 1.0});
  auto* layer_before = index.FindLayer(5);
  ASSERT_NE(layer_before, nullptr);

  // Evict the whole burst: the layer empties but is NOT destroyed.
  EXPECT_EQ(index.EvictBefore(100), 50u);
  EXPECT_EQ(layer_before->size(), 0u);

  // Re-insert through the (still warm) cache; interleave another key so
  // the cache also proves it refreshes on key switches.
  index.Insert(Tuple{200, 5, 2.0});
  index.Insert(Tuple{201, 9, 3.0});
  index.Insert(Tuple{202, 5, 4.0});
  EXPECT_EQ(index.FindLayer(5), layer_before)
      << "layer identity must be stable for the index lifetime";

  double sum = 0;
  const size_t n = index.ForEachInRange(
      5, 100, 300, [&](const Tuple& t) { sum += t.payload; });
  EXPECT_EQ(n, 2u);
  EXPECT_DOUBLE_EQ(sum, 6.0);
  EXPECT_EQ(index.ForEachInRange(9, 100, 300, [](const Tuple&) {}), 1u);
}

TEST(TimeTravelIndexTest, EbrEvictionReturnsEveryNodeToArena) {
  NodeArena arena;
  EpochManager ebr(1);
  const uint32_t writer = ebr.RegisterThread();
  {
    TimeTravelIndex index(arena, &ebr, writer);
    for (Timestamp ts = 0; ts < 3000; ++ts) {
      index.Insert(Tuple{ts, ts % 7, static_cast<double>(ts)});
    }
    EXPECT_EQ(index.key_count(), 7u);
    EXPECT_GT(arena.snapshot().live_nodes, 3000u);

    std::vector<Timestamp> seen;
    index.ForEachInRange(3, 30, 100,
                         [&](const Tuple& t) { seen.push_back(t.ts); });
    for (size_t i = 1; i < seen.size(); ++i) EXPECT_EQ(seen[i] - seen[i - 1], 7);

    EXPECT_EQ(index.EvictBefore(1500), 1500u);
    for (int i = 0; i < 8; ++i) ebr.ReclaimSome(writer);
    index.ForEachInRange(3, kMinTimestamp + 1, kMaxTimestamp,
                         [](const Tuple& t) { EXPECT_GE(t.ts, 1500); });
  }
  // Index destroyed, EBR drained on scope exit of `ebr`? No: ebr outlives
  // the index block, so drain explicitly, then everything must be back.
  ebr.ReclaimAllUnsafe(writer);
  EXPECT_EQ(arena.snapshot().live_nodes, 0u);
}

// Differential property test: the index behaves exactly like a sorted
// multimap for random insert/scan sequences.
TEST(TimeTravelIndexTest, MatchesModelOnRandomWorkload) {
  NodeArena arena;
  TimeTravelIndex index(arena);
  std::multimap<std::pair<Key, Timestamp>, double> model;
  Rng rng(123);
  for (int i = 0; i < 5000; ++i) {
    Tuple t;
    t.key = rng.NextBelow(8);
    t.ts = static_cast<Timestamp>(rng.NextBelow(1000));
    t.payload = static_cast<double>(rng.NextBelow(100));
    index.Insert(t);
    model.emplace(std::make_pair(t.key, t.ts), t.payload);
  }
  for (int q = 0; q < 200; ++q) {
    const Key key = rng.NextBelow(8);
    Timestamp lo = static_cast<Timestamp>(rng.NextBelow(1000));
    Timestamp hi = lo + static_cast<Timestamp>(rng.NextBelow(200));
    double sum = 0;
    size_t n = index.ForEachInRange(
        key, lo, hi, [&](const Tuple& t) { sum += t.payload; });
    double model_sum = 0;
    size_t model_n = 0;
    for (auto it = model.lower_bound({key, lo});
         it != model.end() && it->first.first == key && it->first.second <= hi;
         ++it) {
      model_sum += it->second;
      ++model_n;
    }
    EXPECT_EQ(n, model_n);
    EXPECT_DOUBLE_EQ(sum, model_sum);
  }
}

}  // namespace
}  // namespace oij
