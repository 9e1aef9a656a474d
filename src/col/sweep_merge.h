#ifndef OIJ_COL_SWEEP_MERGE_H_
#define OIJ_COL_SWEEP_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "col/column_batch.h"
#include "col/vector_agg.h"
#include "common/types.h"
#include "skiplist/time_travel_index.h"

namespace oij::col {

/// SweepMerge — the boundary-location leg of the columnar batch kernels
/// (DESIGN.md §5h), the Piatov-style sweep the paper's cache analysis
/// motivates: the index is descended *once per key-group* (the SeekGE
/// inside the gather), after which every per-base window boundary is
/// found by advancing two monotone cursors over the staged, ts-sorted
/// probe columns — no further O(log) descents, no pointer chasing.

/// Half-open slice [lo, hi) of a ProbeColumns pair: the probes inside
/// one base tuple's window.
struct BaseSlice {
  uint32_t lo = 0;
  uint32_t hi = 0;
};

/// Computes the window slice of each base in a ts-sorted run against
/// ts-sorted probe columns. Windows are [ts - window.pre, ts +
/// window.fol], both ends inclusive, exactly matching
/// TimeTravelIndex::ForEachInRange / the scalar filter. Because base ts
/// are non-decreasing, both boundaries advance monotonically: total cost
/// O(num_bases + num_probes) per group.
void ComputeWindowSlices(const Timestamp* base_ts, size_t num_bases,
                         IntervalWindow window, const Timestamp* probe_ts,
                         size_t num_probes, BaseSlice* out);

/// Gathers every tuple of `key` with ts in [lo, hi] out of one
/// time-travel index into contiguous probe columns, prefetching each
/// successor node while the current one is copied (the nodes live on
/// arena slabs, so the walk streams over few lines).
/// `touch(tuple)` runs per visited tuple (cache-sim hook). Returns the
/// number gathered. Readers must hold an EpochGuard if the index is
/// shared, but only for the duration of this call — once gathered, the
/// batch is decoupled from index memory.
template <typename Touch>
size_t GatherRange(const TimeTravelIndex& index, Key key, Timestamp lo,
                   Timestamp hi, ProbeColumns* out, Touch&& touch) {
  TimeTravelIndex::SecondLayer* layer = index.FindLayer(key);
  if (layer == nullptr) return 0;
  size_t gathered = 0;
  for (auto it = layer->SeekGE(lo); it.Valid() && it.key() <= hi;
       it.Next()) {
    it.PrefetchSuccessor();
    const Tuple& t = it.value();
    touch(t);
    out->Append(t.ts, t.payload);
    ++gathered;
  }
  return gathered;
}

}  // namespace oij::col

#endif  // OIJ_COL_SWEEP_MERGE_H_
