#ifndef OIJ_SKIPLIST_TIME_TRAVEL_INDEX_H_
#define OIJ_SKIPLIST_TIME_TRAVEL_INDEX_H_

#include <atomic>
#include <cstddef>
#include <new>

#include "common/types.h"
#include "ebr/epoch_manager.h"
#include "mem/node_arena.h"
#include "skiplist/swmr_skiplist.h"

namespace oij {

/// The time-travel data structure — paper Section V-A1, Figure 10.
///
/// A double-layered skip-list: the first layer maps key -> second-layer
/// list; each second layer orders that key's tuples by timestamp. Locating
/// a window boundary costs O(log N_key) + O(log N_ts) and the scan then
/// touches *only* in-window tuples — this is what makes lateness
/// insignificant to Scale-OIJ (Finding 3), where Key-OIJ must filter the
/// whole unsorted buffer.
///
/// Concurrency contract (SWMR): exactly one owner thread calls Insert()
/// and EvictBefore(); other threads may scan concurrently while holding an
/// EpochGuard on the shared EpochManager. Second-layer lists are created
/// on first insert of a key and published through the first layer with the
/// same release/acquire protocol as any node, so readers never observe a
/// half-built layer. First-layer entries are never removed (their count is
/// bounded by the number of distinct keys).
class TimeTravelIndex {
 public:
  using SecondLayer = SwmrSkipList<Timestamp, Tuple>;
  using FirstLayer = SwmrSkipList<Key, SecondLayer*>;

  /// Every node of every layer — and the second-layer list objects
  /// themselves — live on `arena`, the owner's slab arena, which must
  /// outlive both this index and `ebr`. Pass nullptr `ebr` for
  /// single-threaded use.
  explicit TimeTravelIndex(NodeArena& arena, EpochManager* ebr = nullptr,
                           uint32_t owner_slot = 0, uint64_t seed = 0x71e)
      : ebr_(ebr), owner_slot_(owner_slot), seed_(seed), arena_(&arena),
        first_layer_(arena, ebr, owner_slot, seed) {}

  ~TimeTravelIndex() {
    for (auto it = first_layer_.Begin(); it.Valid(); it.Next()) {
      SecondLayer* layer = it.value();
      layer->~SecondLayer();
      arena_->Deallocate(layer, sizeof(SecondLayer));
    }
  }

  TimeTravelIndex(const TimeTravelIndex&) = delete;
  TimeTravelIndex& operator=(const TimeTravelIndex&) = delete;

  /// Inserts a tuple (owner thread only). Bursty keys hit the MRU cache
  /// and skip the first-layer seek entirely: first-layer entries are never
  /// unlinked and second layers are only destroyed with the whole index,
  /// so a cached layer can never dangle — even after EvictBefore() empties
  /// it, it is still the live layer for its key.
  void Insert(const Tuple& t) {
    SecondLayer* layer = (mru_layer_ != nullptr && mru_key_ == t.key)
                             ? mru_layer_
                             : GetOrCreateLayer(t.key);
    layer->Insert(t.ts, t);
    size_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Invokes `fn(tuple)` for every tuple of `key` with ts in
  /// [start, end] (inclusive, matching Definition 2). Returns the number
  /// of tuples visited, which for this index equals the number matched.
  /// Readers must hold an EpochGuard if the index is shared.
  template <typename Fn>
  size_t ForEachInRange(Key key, Timestamp start, Timestamp end,
                        Fn&& fn) const {
    SecondLayer* const* layer = first_layer_.FindEqual(key);
    if (layer == nullptr) return 0;
    size_t visited = 0;
    for (auto it = (*layer)->SeekGE(start); it.Valid() && it.key() <= end;
         it.Next()) {
      fn(it.value());
      ++visited;
    }
    return visited;
  }

  /// Invokes `fn(tuple)` for every resident tuple, ordered by key then
  /// timestamp (owner thread, or any reader holding an EpochGuard). The
  /// durability layer's snapshot walk: every node visited lives on the
  /// owner's contiguous NodeArena slabs, so the traversal stays
  /// cache-dense even at large index sizes.
  template <typename Fn>
  void ForEachTuple(Fn&& fn) const {
    for (auto it = first_layer_.Begin(); it.Valid(); it.Next()) {
      for (auto jt = it.value()->Begin(); jt.Valid(); jt.Next()) {
        fn(jt.value());
      }
    }
  }

  /// Evicts every tuple with ts < `bound` across all keys (owner only).
  /// Returns the number of tuples removed. Callers must only pass bounds
  /// proven safe against every concurrent reader (see the joiners'
  /// published safe timestamps in join/scale_oij.h).
  size_t EvictBefore(Timestamp bound) {
    size_t removed = 0;
    for (auto it = first_layer_.Begin(); it.Valid(); it.Next()) {
      removed += it.value()->EvictBefore(bound);
    }
    size_.fetch_sub(removed, std::memory_order_relaxed);
    if (ebr_ != nullptr) ebr_->ReclaimSome(owner_slot_);
    return removed;
  }

  /// Total resident tuples (approximate under concurrency).
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Number of distinct keys ever inserted.
  size_t key_count() const { return first_layer_.size(); }

  /// Second layer for `key`, or nullptr (advanced callers: incremental
  /// aggregation seeks the same layer several times).
  SecondLayer* FindLayer(Key key) const {
    SecondLayer* const* layer = first_layer_.FindEqual(key);
    return layer == nullptr ? nullptr : *layer;
  }

 private:
  SecondLayer* GetOrCreateLayer(Key key) {
    SecondLayer* const* existing = first_layer_.FindEqual(key);
    SecondLayer* layer;
    if (existing != nullptr) {
      layer = *existing;
    } else {
      // Single writer: no race between the miss above and this insert.
      const uint64_t seed = seed_ ^ (key * 0x9e3779b97f4a7c15ULL);
      void* mem = arena_->Allocate(sizeof(SecondLayer));
      layer = new (mem) SecondLayer(*arena_, ebr_, owner_slot_, seed);
      first_layer_.Insert(key, layer);
    }
    // Owner-only field: readers go through ForEachInRange/FindLayer and
    // never see the cache.
    mru_key_ = key;
    mru_layer_ = layer;
    return layer;
  }

  EpochManager* ebr_;
  uint32_t owner_slot_;
  uint64_t seed_;
  NodeArena* arena_;
  FirstLayer first_layer_;
  Key mru_key_ = 0;
  SecondLayer* mru_layer_ = nullptr;
  std::atomic<size_t> size_{0};
};

}  // namespace oij

#endif  // OIJ_SKIPLIST_TIME_TRAVEL_INDEX_H_
