#include "mem/node_arena.h"

#include <sys/mman.h>

#include <cassert>
#include <new>

#include "topo/topology.h"

#if defined(__SANITIZE_ADDRESS__)
#define OIJ_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OIJ_ARENA_ASAN 1
#endif
#endif

#ifdef OIJ_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace oij {

namespace {

// ASan cannot see memory the arena recycles internally. In ASan builds
// every block or slab byte not handed out is poisoned, so a read through
// a freed node reports use-after-poison.
// Blocks are poisoned at their real free (Deallocate, run by the epoch
// drain), never at retire: readers still walk retired runs.
inline void Poison([[maybe_unused]] const void* p,
                   [[maybe_unused]] size_t bytes) {
#ifdef OIJ_ARENA_ASAN
  ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
}
inline void Unpoison([[maybe_unused]] const void* p,
                     [[maybe_unused]] size_t bytes) {
#ifdef OIJ_ARENA_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
}

/// Single-writer counter bump: only the owner thread mutates, metrics
/// threads just read, so a relaxed load+store suffices — no locked RMW
/// on the allocation hot path.
inline void Bump(std::atomic<uint64_t>& c, uint64_t delta) {
  c.store(c.load(std::memory_order_relaxed) + delta,
          std::memory_order_relaxed);
}
inline void Drop(std::atomic<uint64_t>& c, uint64_t delta) {
  c.store(c.load(std::memory_order_relaxed) - delta,
          std::memory_order_relaxed);
}
}  // namespace

NodeArena::~NodeArena() {
  for (char* chunk : chunks_) {
    Unpoison(chunk, kChunkBytes);
    munmap(chunk, kChunkBytes);
  }
}

void* NodeArena::Allocate(size_t bytes) {
  assert(bytes > 0);
  Bump(allocations_, 1);
  Bump(live_nodes_, 1);
  if (bytes > kMaxClassBytes) {
    Bump(oversize_allocs_, 1);
    return ::operator new(bytes);
  }
  const size_t cls = ClassIndex(bytes);
  const uint32_t class_bytes = static_cast<uint32_t>((cls + 1) * kGranule);
  Slab* slab = usable_[cls];
  if (slab == nullptr) slab = TakeSlab(class_bytes);

  void* block;
  if (slab->free_head != nullptr) {
    block = slab->free_head;
    Unpoison(block, class_bytes);
    slab->free_head = *static_cast<void**>(block);
  } else {
    block = reinterpret_cast<char*>(slab) + kDataOffset + slab->bump;
    Unpoison(block, class_bytes);
    slab->bump += class_bytes;
  }
  ++slab->live;
  if (slab->free_head == nullptr &&
      kDataOffset + slab->bump + class_bytes > kSlabBytes) {
    UnlinkUsable(cls, slab);  // full: neither free blocks nor bump room
  }
  return block;
}

void NodeArena::Deallocate(void* ptr, size_t bytes) {
  Drop(live_nodes_, 1);
  if (bytes > kMaxClassBytes) {
    ::operator delete(ptr);
    return;
  }
  Slab* slab = SlabOf(ptr);
  const size_t cls = ClassIndex(slab->class_bytes);
  *static_cast<void**>(ptr) = slab->free_head;
  slab->free_head = ptr;
  Poison(ptr, slab->class_bytes);
  --slab->live;
  if (!slab->in_usable) LinkUsable(cls, slab);
  if (slab->live == 0) {
    // Fully dead: drop the whole free list at once and make the slab
    // available to every size class.
    UnlinkUsable(cls, slab);
    slab->free_head = nullptr;
    slab->bump = 0;
    slab->class_bytes = 0;
    slab->prev = nullptr;
    slab->next = empty_;
    empty_ = slab;
    Bump(slab_recycles_, 1);
  }
}

NodeArena::Slab* NodeArena::TakeSlab(uint32_t class_bytes) {
  Slab* slab = empty_;
  if (slab != nullptr) {
    empty_ = slab->next;
    slab->next = nullptr;
  } else {
    slab = NewSlab();
  }
  slab->class_bytes = class_bytes;
  LinkUsable(ClassIndex(class_bytes), slab);
  return slab;
}

NodeArena::Slab* NodeArena::NewSlab() {
  if (chunk_next_ == chunk_end_) {
    // Over-map by one slab, then trim to a kSlabBytes-aligned chunk.
    const size_t span = kChunkBytes + kSlabBytes;
    void* mapped = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapped == MAP_FAILED) throw std::bad_alloc();
    const uintptr_t base = reinterpret_cast<uintptr_t>(mapped);
    const uintptr_t start = (base + kSlabBytes - 1) & ~(kSlabBytes - 1);
    const uintptr_t end = start + kChunkBytes;
    if (start > base) munmap(mapped, start - base);
    if (base + span > end) {
      munmap(reinterpret_cast<void*>(end), base + span - end);
    }
    chunk_next_ = reinterpret_cast<char*>(start);
    chunk_end_ = chunk_next_ + kChunkBytes;
    chunks_.push_back(chunk_next_);
  }
  void* raw = chunk_next_;
  chunk_next_ += kSlabBytes;
  Bump(reserved_bytes_, kSlabBytes);
  if (numa_node_ >= 0) {
    // Slabs are kSlabBytes-self-aligned, so the bind covers whole pages.
    // Best-effort: on failure (no SYS_mbind, invalid node) the pages are
    // placed by first touch — which is the owning joiner's pinned
    // thread, landing them on the same node anyway.
    if (TryBindMemoryToNode(raw, kSlabBytes, numa_node_)) {
      Bump(numa_bound_slabs_, 1);
    }
  }
  Slab* slab = new (raw) Slab();
  // Allocate unpoisons each block as it first hands it out.
  Poison(reinterpret_cast<char*>(slab) + kDataOffset,
         kSlabBytes - kDataOffset);
  return slab;
}

void NodeArena::LinkUsable(size_t cls, Slab* slab) {
  slab->prev = nullptr;
  slab->next = usable_[cls];
  if (usable_[cls] != nullptr) usable_[cls]->prev = slab;
  usable_[cls] = slab;
  slab->in_usable = true;
}

void NodeArena::UnlinkUsable(size_t cls, Slab* slab) {
  if (!slab->in_usable) return;
  if (slab->prev != nullptr) {
    slab->prev->next = slab->next;
  } else {
    usable_[cls] = slab->next;
  }
  if (slab->next != nullptr) slab->next->prev = slab->prev;
  slab->prev = nullptr;
  slab->next = nullptr;
  slab->in_usable = false;
}

NodeArena::Stats NodeArena::snapshot() const {
  Stats s;
  s.reserved_bytes = reserved_bytes_.load(std::memory_order_relaxed);
  s.live_nodes = live_nodes_.load(std::memory_order_relaxed);
  s.allocations = allocations_.load(std::memory_order_relaxed);
  s.slab_recycles = slab_recycles_.load(std::memory_order_relaxed);
  s.oversize_allocs = oversize_allocs_.load(std::memory_order_relaxed);
  s.numa_bound_slabs = numa_bound_slabs_.load(std::memory_order_relaxed);
  return s;
}

size_t NodeArena::EmptySlabCount() const {
  size_t n = 0;
  for (Slab* slab = empty_; slab != nullptr; slab = slab->next) ++n;
  return n;
}

}  // namespace oij
