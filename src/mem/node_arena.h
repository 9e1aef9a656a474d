#ifndef OIJ_MEM_NODE_ARENA_H_
#define OIJ_MEM_NODE_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace oij {

/// Slab arena for skip-list nodes — the one allocator behind every
/// SwmrSkipList and TimeTravelIndex (DESIGN.md "Memory management").
///
/// Why: at steady state every probe tuple costs one allocation on insert
/// and one free on evict; on the global heap that touches the allocator
/// twice per tuple on the hottest path in the system, and the
/// nodes of one second-layer end up scattered across the heap. The arena
/// replaces both touches with a bump pointer / free-list pop inside
/// 64 KiB cache-line-aligned slabs owned by a single joiner, so
/// consecutive inserts of a key land in adjacent memory and eviction
/// recycles the same hot lines.
///
/// Layout. Each slab starts with a 64-byte header followed by blocks of
/// one size class (multiples of 16 bytes up to kMaxClassBytes). Slabs are
/// allocated aligned to their own size, so a block's slab header is
/// recovered by masking the block address — no per-block metadata at all.
/// Freed blocks go on their *own slab's* free list (the first 8 bytes of
/// the dead block hold the link), which is what makes whole-slab
/// recycling possible: when a slab's live count reaches zero its entire
/// free list is dropped wholesale and the slab returns to a shared empty
/// pool, reusable by any size class. Requests above kMaxClassBytes fall
/// through to the global heap (counted, never expected on the hot path).
///
/// Concurrency contract: single owner. Exactly one thread may call
/// Allocate()/Deallocate() — the same SWMR writer that owns the skip
/// lists living in the arena. Under EBR this includes the drain of
/// retired runs (ReclaimSome is owner-called; the EpochManager destructor
/// runs after the joiners have been joined). snapshot() may be called
/// from any thread (metrics sampling); its counters are relaxed atomics.
///
/// ASan builds poison every block and slab byte not handed out, so a read
/// through a freed node reports use-after-poison.
///
/// Lifetime contract: the arena must outlive every skip list allocated
/// from it *and* the EpochManager holding retired runs of its nodes —
/// destroy order: lists, then the epoch manager, then the arena.
class NodeArena {
 public:
  static constexpr size_t kSlabBytes = 64 * 1024;
  static constexpr size_t kGranule = 16;
  static constexpr size_t kMaxClassBytes = 256;

  NodeArena() = default;
  ~NodeArena();

  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  /// Binds every *subsequently* allocated slab to OS NUMA node `node`
  /// (best-effort mbind; -1 restores the default first-touch policy).
  /// Engines call this at construction, before the owner thread exists,
  /// so the joiner's time-travel index grows on its own socket. Slabs
  /// already held keep their placement.
  void SetNumaNode(int node) { numa_node_ = node; }
  int numa_node() const { return numa_node_; }

  /// Returns 16-byte-aligned storage for `bytes` (owner thread only).
  void* Allocate(size_t bytes);

  /// Returns a block obtained from Allocate(`bytes`) (owner thread only).
  /// `bytes` must match the allocation request (the skip list recomputes
  /// it from the node height).
  void Deallocate(void* ptr, size_t bytes);

  /// Point-in-time counters; safe from any thread.
  struct Stats {
    uint64_t reserved_bytes = 0;   ///< slab bytes held (incl. empty pool)
    uint64_t live_nodes = 0;       ///< allocations minus deallocations
    uint64_t allocations = 0;      ///< cumulative Allocate() calls
    uint64_t slab_recycles = 0;    ///< fully-dead slabs returned to pool
    uint64_t oversize_allocs = 0;  ///< requests above kMaxClassBytes
    uint64_t numa_bound_slabs = 0;  ///< fresh slabs mbind succeeded on
  };
  Stats snapshot() const;

  /// Number of slabs currently in the shared empty pool (test hook).
  size_t EmptySlabCount() const;

 private:
  struct alignas(64) Slab {
    Slab* next = nullptr;        ///< usable-list / empty-pool link
    Slab* prev = nullptr;        ///< usable-list back link
    void* free_head = nullptr;   ///< per-slab block free list
    uint32_t class_bytes = 0;    ///< block size this slab currently serves
    uint32_t bump = 0;           ///< byte offset of the next virgin block
    uint32_t live = 0;           ///< blocks handed out and not yet freed
    bool in_usable = false;      ///< linked into its class's usable list
  };
  static_assert(sizeof(Slab) == 64, "slab header must stay one cache line");

  /// Slabs are carved from kChunkSlabs-slab chunks mapped straight from
  /// the OS, so a destroyed arena returns its memory. Taken from malloc,
  /// the owner thread's slabs would land in its glibc thread arena, whose
  /// top malloc_trim never releases. One mapping per chunk, not per
  /// slab, keeps the process's mapping count low.
  static constexpr size_t kChunkSlabs = 16;
  static constexpr size_t kChunkBytes = kChunkSlabs * kSlabBytes;
  static constexpr size_t kNumClasses = kMaxClassBytes / kGranule;
  static constexpr size_t kDataOffset = sizeof(Slab);

  static size_t ClassIndex(size_t bytes) {
    return (bytes + kGranule - 1) / kGranule - 1;
  }
  static Slab* SlabOf(void* block) {
    return reinterpret_cast<Slab*>(reinterpret_cast<uintptr_t>(block) &
                                   ~(static_cast<uintptr_t>(kSlabBytes) - 1));
  }

  Slab* TakeSlab(uint32_t class_bytes);
  /// Carves a fresh slab off the newest chunk, mapping a new chunk when
  /// it is used up.
  Slab* NewSlab();
  void LinkUsable(size_t cls, Slab* slab);
  void UnlinkUsable(size_t cls, Slab* slab);

  Slab* usable_[kNumClasses] = {};  ///< slabs with room, per class
  Slab* empty_ = nullptr;           ///< fully-dead slabs, any class
  std::vector<char*> chunks_;       ///< mapped chunks, for the destructor
  char* chunk_next_ = nullptr;      ///< next uncarved slab of the newest
  char* chunk_end_ = nullptr;       ///< chunk, and its end

  std::atomic<uint64_t> reserved_bytes_{0};
  std::atomic<uint64_t> live_nodes_{0};
  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> slab_recycles_{0};
  std::atomic<uint64_t> oversize_allocs_{0};
  std::atomic<uint64_t> numa_bound_slabs_{0};

  /// OS node fresh slabs are mbind-bound to; -1 = first-touch default.
  int numa_node_ = -1;
};

}  // namespace oij

#endif  // OIJ_MEM_NODE_ARENA_H_
