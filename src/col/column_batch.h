#ifndef OIJ_COL_COLUMN_BATCH_H_
#define OIJ_COL_COLUMN_BATCH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace oij::col {

/// Probe columns — the gather leg of the columnar batch kernels
/// (DESIGN.md §5h). Probe tuples gathered from the time-travel index
/// (or a Key-OIJ bucket) for one key-group land in ts/payload columns
/// that the sweep merge and the VectorAggregate kernels stream over.
/// The columns are heap vectors, reused across drains.

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
  void Clear() {
    ts_.clear();
    payload_.clear();
    run_starts_.clear();
    finite_ = true;
  }

  void Append(Timestamp ts, double payload) {
    if (!ts_.empty() && ts < ts_.back()) {
      run_starts_.push_back(static_cast<uint32_t>(ts_.size()));
    }
    if (!std::isfinite(payload)) finite_ = false;
    ts_.push_back(ts);
    payload_.push_back(payload);
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
    ts_.resize(n);
    payload_.resize(n);
  }

  /// Drops the first `n` entries; call when sorted.
  void EraseFront(size_t n) {
    ts_.erase(ts_.begin(), ts_.begin() + static_cast<ptrdiff_t>(n));
    payload_.erase(payload_.begin(),
                   payload_.begin() + static_cast<ptrdiff_t>(n));
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
  std::vector<Timestamp> ts_;
  std::vector<double> payload_;
  /// Start of every run but the first (which starts at 0); empty while
  /// the columns are sorted. EnsureSorted reuses it for run bounds.
  std::vector<uint32_t> run_starts_;
  std::vector<Timestamp> scratch_ts_;
  std::vector<double> scratch_payload_;
  bool finite_ = true;
};

}  // namespace oij::col

#endif  // OIJ_COL_COLUMN_BATCH_H_
