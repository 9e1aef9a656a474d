#ifndef OIJ_COL_VECTOR_AGG_H_
#define OIJ_COL_VECTOR_AGG_H_

#include <cstddef>
#include <cstdint>

#include "agg/aggregate.h"

namespace oij::col {

/// VectorAggregate — the aggregation leg of the columnar batch kernels
/// (DESIGN.md §5h). Slices handed here are contiguous payload columns
/// produced by the sweep merge, so the reduction is pure streaming
/// arithmetic: no pointer chasing, no per-tuple branches.
///
/// Dispatch rules. The kernel has exactly two implementations:
///
///  * an AVX2 body (4 doubles per vector op), compiled either when the
///    TU is already built with -mavx2 (`__AVX2__`) or, on x86-64
///    GCC/Clang, via a `target("avx2")` attribute with a cached
///    `__builtin_cpu_supports("avx2")` runtime check;
///  * a portable scalar body that *emulates the same four virtual
///    lanes* — main body striped across four accumulators, lanes
///    reduced in the exact order the AVX2 horizontal reduction uses
///    ((l0+l2) + (l1+l3)), tail elements folded in sequentially after
///    the lane reduction.
///
/// Because both bodies perform bit-identical operation sequences on
/// finite inputs, AggregateSlice() and AggregateSlicePortable() return
/// bit-equal results whichever one dispatch picks — this is what lets
/// the no-AVX2 CI leg run the very same differential tests. Callers
/// must keep non-finite payloads out of the columns (the staging layer
/// falls back to the scalar join path when it sees one), because
/// vminpd/vmaxpd and ordered compares diverge on NaN.
///
/// Configure with -DOIJ_PORTABLE_KERNELS=ON to force the portable body
/// everywhere (the CI build-matrix leg that keeps it honest).

/// Aggregate of one contiguous payload slice.
struct SliceAgg {
  double sum = 0.0;
  uint64_t count = 0;
  double min = 0.0;  ///< valid only when count > 0
  double max = 0.0;  ///< valid only when count > 0

  AggState ToAggState() const {
    AggState s;
    s.sum = sum;
    s.count = count;
    if (count > 0) {
      s.min = min;
      s.max = max;
    }
    return s;
  }
};

/// Reduces `v[0..n)`; dispatches to AVX2 when available.
SliceAgg AggregateSlice(const double* v, size_t n);

/// The four-virtual-lane scalar body (always compiled; the reference
/// the bit-exactness tests compare the dispatcher against).
SliceAgg AggregateSlicePortable(const double* v, size_t n);

/// True when AggregateSlice() currently routes to the AVX2 body.
bool SimdActive();

/// Exclusive prefix sums: out[i] = v[0] + ... + v[i-1], out[n] = total.
/// `out` must have room for n + 1 doubles. The sweep merge's invertible
/// fast path turns every per-base window sum into two loads and one
/// subtract, independent of window width.
void PrefixSums(const double* v, size_t n, double* out);

}  // namespace oij::col

#endif  // OIJ_COL_VECTOR_AGG_H_
