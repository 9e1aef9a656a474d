#ifndef OIJ_COL_KEY_WINDOW_H_
#define OIJ_COL_KEY_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "agg/aggregate.h"
#include "col/column_batch.h"
#include "col/sweep_merge.h"
#include "common/types.h"

namespace oij::col {

/// KeyWindow — one key's resident window, the incremental aggregation
/// of Scale-OIJ (paper §V-C, DESIGN.md §5h): Subtract-on-Evict at
/// key-group granularity. It keeps the key's probes, ts-sorted, in heap
/// columns sized to the window, from the oldest window start still
/// needed up to a completeness horizon, plus their running prefix sums.
/// Each finalize
///  1. trims the window below the first window start it serves (Begin),
///  2. gathers only the delta above the carried end straight into the
///     window's columns (delta) and merges it in (Extend), keeping what
///     lies at or below the horizon and reading the rest as a tail that
///     the next Begin drops,
///  3. aggregates its bases' monotone slices of the window (Aggregate):
///     sum/count/avg as two prefix-sum loads per base, min/max by one
///     monotonic-deque pass over the slices.
/// The invariant: the resident part holds every probe of the key with
/// ts in [start(), end()], and every payload in it is finite.
/// Not thread-safe: owned by one joiner.
class KeyWindow {
 public:
  /// Readies the window for bases whose windows start at or after `lo`
  /// and returns the first ts the caller must gather from (one past the
  /// carried end). Drops the last finalize's tail and every probe below
  /// `lo`. A window that starts above `lo` (a regressed base) or ends
  /// below `lo - 1` restarts empty at `lo`.
  Timestamp Begin(Timestamp lo);

  /// Where the caller appends the delta after Begin: every probe in
  /// [Begin's result, hi], one ts-sorted run per source.
  ProbeColumns* delta() { return &cols_; }

  /// Merges the delta's runs. Probes at or below `complete_through`
  /// (which must be at most hi) become resident; the rest form the tail.
  /// Returns false, and leaves the window empty, when a payload is
  /// NaN/Inf: non-finite payloads never go resident (the prefix sums and
  /// the deque order would not survive them).
  bool Extend(Timestamp complete_through);

  /// The live probes, resident part then tail; slices index into this.
  ProbeSpan span() const {
    return ProbeSpan{cols_.ts() + head_, cols_.payload() + head_,
                     cols_.size() - head_, true};
  }

  /// Writes the aggregate of each of the `n` slices of span() to
  /// `out[i]`. Slices must be monotone (lo and hi non-decreasing), as
  /// ComputeWindowSlices produces them. Only the components `kind`
  /// reads are set, plus count. `deque` is scratch.
  void Aggregate(AggKind kind, const BaseSlice* slices, size_t n,
                 AggState* out, std::vector<uint32_t>* deque) const;

  Timestamp start() const { return start_; }
  /// The carried end: probes up to here are resident.
  Timestamp end() const { return end_; }

 private:
  void Reset();

  ProbeColumns cols_;
  /// sums_[i] = payload[0] + ... + payload[i - 1] for i <= cols_.size();
  /// entries past that are stale. Never shrinks, so a window that
  /// restarts every finalize does not refill it.
  std::vector<double> sums_{0.0};
  size_t head_ = 0;     ///< first live probe; below it, trimmed
  size_t carried_ = 0;  ///< [head_, carried_) resident, then the tail
  /// Empty, and restarted by any Begin, until the first Begin.
  Timestamp start_ = kMaxTimestamp;
  Timestamp end_ = kMinTimestamp;
};

}  // namespace oij::col

#endif  // OIJ_COL_KEY_WINDOW_H_
