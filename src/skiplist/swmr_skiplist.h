#ifndef OIJ_SKIPLIST_SWMR_SKIPLIST_H_
#define OIJ_SKIPLIST_SWMR_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <new>
#include <utility>

#include "common/random.h"
#include "ebr/epoch_manager.h"
#include "mem/node_arena.h"

namespace oij {

/// Single-Writer-Multiple-Reader (SWMR) skip-list — paper Section V-A2,
/// Algorithms 1 and 2.
///
/// Exactly one thread (the owner) may call Insert() and EvictBefore(); any
/// number of threads may concurrently Seek()/iterate without locks. The
/// publication protocol follows the paper: a new node's forward pointers
/// are filled with relaxed stores (the node is not yet reachable), then the
/// predecessors' pointers are flipped to it with release stores; readers
/// load every forward pointer with acquire, so a reachable node is always
/// fully initialized.
///
/// Duplicate keys are allowed (the second index layer keys by timestamp and
/// two tuples may share one); a new duplicate is inserted in front of the
/// existing run, matching Algorithm 2's `next.key >= key` predicate.
///
/// Eviction removes a *prefix* (everything below a bound). Removed nodes
/// keep their forward pointers, which lead back into the retained suffix,
/// so a reader that entered the prefix before the unlink finishes its scan
/// correctly; the nodes themselves are handed to the EpochManager and freed
/// only after every reader epoch has drained. Whether a reader is
/// *guaranteed to find* data near the bound is a protocol question answered
/// one level up (TimeTravelIndex / the joiners' published safe timestamps).
template <typename K, typename V>
class SwmrSkipList {
 public:
  static constexpr int kMaxHeight = 16;

  /// Every node, the head included, lives on `arena`, which must outlive
  /// both this list and `ebr` (see NodeArena's lifetime contract).
  /// `ebr` + `owner_slot` retire evicted nodes: each evicted run is handed
  /// to the EpochManager as one RetireBatch entry. Pass nullptr `ebr` for
  /// single-threaded use; evicted nodes then go straight back to the arena.
  explicit SwmrSkipList(NodeArena& arena, EpochManager* ebr = nullptr,
                        uint32_t owner_slot = 0, uint64_t seed = 0x5eed)
      : ebr_(ebr), owner_slot_(owner_slot), arena_(&arena), rng_(seed) {
    head_ = NewNode(K{}, V{}, kMaxHeight);
  }

  ~SwmrSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->Next(0);
      DeleteNode(n, arena_);
      n = next;
    }
  }

  SwmrSkipList(const SwmrSkipList&) = delete;
  SwmrSkipList& operator=(const SwmrSkipList&) = delete;

  struct Node {
    K key;
    V value;
    int32_t height;

    Node* Next(int level) const {
      return next_[level].load(std::memory_order_acquire);
    }
    void SetNextRelaxed(int level, Node* n) {
      next_[level].store(n, std::memory_order_relaxed);
    }
    void SetNextRelease(int level, Node* n) {
      next_[level].store(n, std::memory_order_release);
    }

    // Variable-length tail: next_[0 .. height-1] are valid.
    std::atomic<Node*> next_[1];
  };

  /// Read-side cursor. Valid while the reader's epoch guard is held.
  class Iterator {
   public:
    Iterator() = default;
    explicit Iterator(const Node* node) : node_(node) {}

    bool Valid() const { return node_ != nullptr; }
    const K& key() const { return node_->key; }
    const V& value() const { return node_->value; }
    void Next() { node_ = node_->Next(0); }

    /// Software-prefetches the successor node's cache line so it is
    /// warm by the time Next()+value() touch it — the gather walks of
    /// the columnar batch kernels (src/col/sweep_merge.h) call this
    /// while copying the current node out. The level-0 link load is
    /// the same acquire Next() will perform, so publication safety is
    /// unchanged; prefetching the resulting address is purely a hint.
    void PrefetchSuccessor() const {
#if defined(__GNUC__) || defined(__clang__)
      if (node_ != nullptr) {
        __builtin_prefetch(node_->Next(0), /*rw=*/0, /*locality=*/3);
      }
#endif
    }

   private:
    const Node* node_ = nullptr;
  };

  /// Inserts (owner thread only). Paper Algorithm 2.
  void Insert(const K& key, const V& value) {
    Node* pre[kMaxHeight];
    Node* node = head_;
    int level = kMaxHeight - 1;
    // Find, per level, the last node with key < new key.
    while (true) {
      Node* next = node->Next(level);
      if (next == nullptr || !(next->key < key)) {
        pre[level] = node;
        if (level == 0) break;
        --level;
      } else {
        node = next;
      }
    }
    const int height = RandomHeight();
    Node* new_node = NewNode(key, value, height);
    for (int i = 0; i < height; ++i) {
      // Not yet reachable: relaxed is enough (Alg. 2 lines 13-14).
      new_node->SetNextRelaxed(i, pre[i]->Next(i));
    }
    for (int i = 0; i < height; ++i) {
      // Atomically publish (Alg. 2 lines 15-16).
      pre[i]->SetNextRelease(i, new_node);
    }
    size_.fetch_add(1, std::memory_order_relaxed);
  }

  /// First node with key >= `key` (or invalid). Paper Algorithm 1
  /// generalized to a lower-bound seek, which is what range scans need.
  Iterator SeekGE(const K& key) const {
    const Node* node = head_;
    int level = kMaxHeight - 1;
    while (true) {
      const Node* next = node->Next(level);
      if (next == nullptr || !(next->key < key)) {
        if (level == 0) return Iterator(next);
        --level;
      } else {
        node = next;
      }
    }
  }

  /// First node in list order.
  Iterator Begin() const { return Iterator(head_->Next(0)); }

  /// Pointer to the value of the first node whose key equals `key`, or
  /// nullptr. The pointee is stable for the node's lifetime.
  V* FindEqual(const K& key) const {
    Iterator it = SeekGE(key);
    if (it.Valid() && !(key < it.key())) {
      return const_cast<V*>(&it.value());
    }
    return nullptr;
  }

  /// Unlinks every node with key < `bound` (owner thread only) and retires
  /// them through the EpochManager. Returns the number of nodes removed.
  /// `on_remove` is invoked for each removed node's key/value before the
  /// unlink becomes visible (used by callers that keep side statistics).
  template <typename Fn>
  size_t EvictBefore(const K& bound, Fn&& on_remove) {
    Node* old_first = head_->Next(0);
    if (old_first == nullptr || !(old_first->key < bound)) return 0;

    // Per level, the first *retained* node is the first with key >= bound.
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      Node* next = head_->Next(level);
      while (next != nullptr && next->key < bound) {
        next = next->Next(level);
      }
      head_->SetNextRelease(level, next);
    }

    // Walk the removed prefix (still linked) and retire it. The prefix's
    // level-0 chain is left untouched — readers inside it still need the
    // forward pointers — which also makes it a ready-made intrusive run:
    // the whole prefix is retired as one RetireBatch entry.
    size_t removed = 0;
    Node* n = old_first;
    while (n != nullptr && n->key < bound) {
      Node* next = n->Next(0);
      on_remove(n->key, n->value);
      if (ebr_ == nullptr) DeleteNode(n, arena_);
      ++removed;
      n = next;
    }
    if (ebr_ != nullptr) {
      ebr_->RetireBatch(owner_slot_, old_first, removed, &DrainRetiredRun,
                        arena_);
    }
    size_.fetch_sub(removed, std::memory_order_relaxed);
    return removed;
  }

  size_t EvictBefore(const K& bound) {
    return EvictBefore(bound, [](const K&, const V&) {});
  }

  /// Approximate element count (exact when quiescent).
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// Bytes a node of `height` occupies (allocation and free must agree).
  static size_t NodeBytes(int height) {
    return sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1);
  }

 private:
  Node* NewNode(const K& key, const V& value, int height) {
    Node* n = static_cast<Node*>(arena_->Allocate(NodeBytes(height)));
    new (&n->key) K(key);
    new (&n->value) V(value);
    n->height = height;
    for (int i = 0; i < height; ++i) {
      new (&n->next_[i]) std::atomic<Node*>(nullptr);
    }
    return n;
  }

  static void DeleteNode(Node* n, NodeArena* arena) {
    const size_t bytes = NodeBytes(n->height);
    n->key.~K();
    n->value.~V();
    arena->Deallocate(static_cast<void*>(n), bytes);
  }

  /// EpochManager::DrainFn for a retired eviction run: the chain is the
  /// prefix's own level-0 pointers, so read each node's successor before
  /// freeing it. Walks exactly `count` nodes — the chain's tail pointer
  /// leads into memory this run does not own (the retained suffix, or a
  /// later-retired run).
  static void DrainRetiredRun(void* head, size_t count, void* ctx) {
    Node* n = static_cast<Node*>(head);
    NodeArena* arena = static_cast<NodeArena*>(ctx);
    for (size_t i = 0; i < count; ++i) {
      Node* next = n->Next(0);
      DeleteNode(n, arena);
      n = next;
    }
  }

  int RandomHeight() {
    // Branching factor 4 (RocksDB-style): P(height > h) = 4^-h.
    int height = 1;
    while (height < kMaxHeight && rng_.NextBelow(4) == 0) ++height;
    return height;
  }

  EpochManager* ebr_;
  uint32_t owner_slot_;
  NodeArena* arena_;
  Rng rng_;
  Node* head_;
  std::atomic<size_t> size_{0};
};

}  // namespace oij

#endif  // OIJ_SKIPLIST_SWMR_SKIPLIST_H_
