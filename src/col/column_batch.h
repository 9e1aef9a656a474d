#ifndef OIJ_COL_COLUMN_BATCH_H_
#define OIJ_COL_COLUMN_BATCH_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.h"
#include "mem/node_arena.h"

namespace oij::col {

/// ColumnarBatchStage & friends — the staging leg of the columnar batch
/// kernels (DESIGN.md §5h). When a drain releases a run of base tuples,
/// the engines transpose them out of their pending queues into SoA
/// columns here (ts[], key[], payload[], arrival[]), sort/group by key,
/// and hand each key-group to the sweep merge. Probe tuples gathered
/// from the time-travel index land in a ProbeColumns pair the
/// VectorAggregate kernels stream over.
///
/// Column backing store: one loaned NodeArena slab per column while the
/// batch fits (the common case — 8192 entries of 8 bytes per 64 KiB
/// slab), migrating to the heap only when a batch outgrows it. The
/// stage lives in the joiner's state and is reused across drains, so at
/// steady state the same hot slabs cycle between eviction and staging.

/// Fixed-stride POD column, arena-slab backed (heap when no arena or
/// past one slab). Not thread-safe: joiner-owned, like the arena.
template <typename T>
class ColumnBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit ColumnBuffer(NodeArena* arena = nullptr) : arena_(arena) {}

  ~ColumnBuffer() { Release(); }

  ColumnBuffer(const ColumnBuffer&) = delete;
  ColumnBuffer& operator=(const ColumnBuffer&) = delete;

  void Reserve(size_t n) {
    if (n > cap_) Grow(n);
  }

  void PushBack(T v) {
    if (size_ == cap_) Grow(size_ + 1);
    data_[size_++] = v;
  }

  void Clear() { size_ = 0; }

  /// Keeps the first `n` entries (n <= size()).
  void Truncate(size_t n) { size_ = n; }

  /// Drops the first `n` entries (n <= size()), moving the rest down.
  void EraseFront(size_t n) {
    if (n == 0) return;
    std::memmove(data_, data_ + n, (size_ - n) * sizeof(T));
    size_ -= n;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T operator[](size_t i) const { return data_[i]; }
  T& operator[](size_t i) { return data_[i]; }

  /// True while the backing store is a loaned arena slab (test hook).
  bool arena_backed() const { return slab_ != nullptr; }

 private:
  static constexpr size_t kSlabCapacity =
      NodeArena::kSlabDataBytes / sizeof(T);

  void Grow(size_t need) {
    size_t cap = cap_ == 0 ? 64 : cap_ * 2;
    if (cap < need) cap = need;
    if (data_ == nullptr && arena_ != nullptr && need <= kSlabCapacity) {
      slab_ = arena_->AcquireSlab();
      data_ = static_cast<T*>(slab_);
      cap_ = kSlabCapacity;
      return;
    }
    T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    Release();
    data_ = fresh;
    cap_ = cap;
  }

  void Release() {
    if (slab_ != nullptr) {
      arena_->ReleaseSlab(slab_);
      slab_ = nullptr;
    } else if (data_ != nullptr) {
      ::operator delete(data_);
    }
    data_ = nullptr;
    cap_ = 0;
  }

  NodeArena* arena_;
  void* slab_ = nullptr;  ///< non-null while data_ points into a loan
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t cap_ = 0;
};

/// One drain's worth of finalize-ready base tuples, transposed SoA.
/// Append order is the pending-queue pop order (non-decreasing ts);
/// SortByKey() then groups by key *stably*, so each key-group stays
/// ts-sorted — the precondition of the sweep merge.
class ColumnarBatchStage {
 public:
  explicit ColumnarBatchStage(NodeArena* arena = nullptr)
      : ts_(arena), key_(arena), payload_(arena), arrival_(arena) {}

  void Clear() {
    ts_.Clear();
    key_.Clear();
    payload_.Clear();
    arrival_.Clear();
    order_.clear();
  }

  void Append(const Tuple& t, int64_t arrival_us) {
    ts_.PushBack(t.ts);
    key_.PushBack(t.key);
    payload_.PushBack(t.payload);
    arrival_.PushBack(arrival_us);
  }

  size_t size() const { return ts_.size(); }
  bool empty() const { return ts_.empty(); }

  /// Raw append-order accessors (the scalar fallback replays these in
  /// pop order, byte-for-byte like the legacy loop).
  Tuple TupleAt(size_t i) const {
    return Tuple{ts_[i], key_[i], payload_[i]};
  }
  int64_t ArrivalAt(size_t i) const { return arrival_[i]; }

  /// Builds the key-grouped order. Returns group count.
  size_t SortByKey();

  /// Sorted-order accessors (valid after SortByKey).
  size_t OrderAt(size_t i) const { return order_[i]; }
  Timestamp SortedTs(size_t i) const { return ts_[order_[i]]; }
  Key SortedKey(size_t i) const { return key_[order_[i]]; }
  Tuple SortedTuple(size_t i) const { return TupleAt(order_[i]); }
  int64_t SortedArrival(size_t i) const { return arrival_[order_[i]]; }

  /// Invokes fn(key, begin, end) per key-group over sorted positions
  /// [begin, end) (valid after SortByKey).
  template <typename Fn>
  void ForEachGroup(Fn&& fn) const {
    size_t begin = 0;
    while (begin < order_.size()) {
      const Key k = key_[order_[begin]];
      size_t end = begin + 1;
      while (end < order_.size() && key_[order_[end]] == k) ++end;
      fn(k, begin, end);
      begin = end;
    }
  }

 private:
  ColumnBuffer<Timestamp> ts_;
  ColumnBuffer<Key> key_;
  ColumnBuffer<double> payload_;
  ColumnBuffer<int64_t> arrival_;
  std::vector<uint32_t> order_;  ///< stable key-sorted permutation
};

/// Read-only view of ts-sorted probe columns: what a gather hands the
/// sweep merge, whether the columns are a drain's scratch or a key's
/// resident window.
struct ProbeSpan {
  const Timestamp* ts = nullptr;
  const double* payload = nullptr;
  size_t size = 0;
  bool finite = true;  ///< false when any payload is NaN/Inf
};

/// Probe tuples of one key-group, gathered into contiguous ts/payload
/// columns. Sources append in timestamp order each (skip-list second
/// layers are ts-sorted), so the columns hold one sorted run per source
/// that broke monotonic order (team members, annex); Append records
/// where each run starts and EnsureSorted merges the runs.
class ProbeColumns {
 public:
  explicit ProbeColumns(NodeArena* arena = nullptr)
      : ts_(arena), payload_(arena) {}

  void Clear() {
    ts_.Clear();
    payload_.Clear();
    run_starts_.clear();
    finite_ = true;
  }

  void Append(Timestamp ts, double payload) {
    if (!ts_.empty() && ts < ts_[ts_.size() - 1]) {
      run_starts_.push_back(static_cast<uint32_t>(ts_.size()));
    }
    if (!std::isfinite(payload)) finite_ = false;
    ts_.PushBack(ts);
    payload_.PushBack(payload);
  }

  /// Merges the runs into one ts-sorted sequence, bottom-up through the
  /// scratch columns (which only ever grow). Ties take the earlier run
  /// first, so the result is exactly a stable sort of the append order.
  /// Call once after gathering. Entries before `from`, if sorted and no
  /// greater than any later one, are left untouched.
  void EnsureSorted(size_t from = 0);

  /// Keeps the first `n` entries; call when sorted. Does not reset
  /// all_finite().
  void Truncate(size_t n) {
    ts_.Truncate(n);
    payload_.Truncate(n);
  }

  /// Drops the first `n` entries; call when sorted.
  void EraseFront(size_t n) {
    ts_.EraseFront(n);
    payload_.EraseFront(n);
  }

  size_t size() const { return ts_.size(); }
  const Timestamp* ts() const { return ts_.data(); }
  const double* payload() const { return payload_.data(); }
  /// The columns as a view; call EnsureSorted first.
  ProbeSpan span() const {
    return ProbeSpan{ts_.data(), payload_.data(), ts_.size(), finite_};
  }

  /// False when any appended payload was NaN/Inf — the engines fall
  /// back to the scalar join path for the group (see vector_agg.h on
  /// why SIMD min/max must never see non-finite lanes).
  bool all_finite() const { return finite_; }

 private:
  ColumnBuffer<Timestamp> ts_;
  ColumnBuffer<double> payload_;
  /// Start of every run but the first (which starts at 0); empty while
  /// the columns are sorted. EnsureSorted reuses it for run bounds.
  std::vector<uint32_t> run_starts_;
  std::vector<Timestamp> scratch_ts_;
  std::vector<double> scratch_payload_;
  bool finite_ = true;
};

}  // namespace oij::col

#endif  // OIJ_COL_COLUMN_BATCH_H_
