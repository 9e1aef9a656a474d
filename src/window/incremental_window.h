#ifndef OIJ_WINDOW_INCREMENTAL_WINDOW_H_
#define OIJ_WINDOW_INCREMENTAL_WINDOW_H_

#include <cstdint>

#include "agg/aggregate.h"
#include "common/types.h"

namespace oij {

/// Subtract-on-Evict incremental interval aggregation — paper Section V-C,
/// Figures 15/16, adapting Tangwongsan et al. [16] to relative windows.
///
/// One instance tracks the running aggregate of one key's sliding relative
/// window as seen by one consumer. Because a consumer finalizes its base
/// tuples in timestamp order, consecutive windows slide monotonically:
/// Agg(w_new) = Agg(w_prev) ⊖ {tuples in [prev_start, new_start)}
///                          ⊕ {tuples in (prev_end, new_end]}.
/// Only the two delta ranges are scanned, so heavily overlapping windows
/// (large |w|, dense base stream) share almost all work.
///
/// When the operator is non-invertible, the windows do not overlap, or the
/// window regressed (stale state), Slide() transparently falls back to a
/// full recomputation and re-arms the state.
class IncrementalWindowState {
 public:
  struct SlideStats {
    uint64_t visited = 0;   ///< tuples touched (delta or full scan)
    bool recomputed = false;
  };

  /// Advances the window to [new_start, new_end] and returns the tuples
  /// visited. `scan` must have signature
  ///   void scan(Timestamp lo, Timestamp hi, auto&& per_tuple)
  /// and invoke `per_tuple(const Tuple&)` for every stored tuple of this
  /// key with ts in [lo, hi] (inclusive).
  template <typename Scanner>
  SlideStats Slide(Timestamp new_start, Timestamp new_end, AggKind kind,
                   Scanner&& scan) {
    SlideStats stats;
    const bool can_increment = valid_ && IsInvertible(kind) &&
                               new_start >= prev_start_ &&
                               new_end >= prev_end_ &&
                               new_start <= prev_end_ + 1;
    if (!can_increment) {
      agg_.Reset();
      scan(new_start, new_end, [&](const Tuple& t) {
        agg_.Add(t.payload);
        ++stats.visited;
      });
      stats.recomputed = true;
    } else {
      if (new_start > prev_start_) {
        scan(prev_start_, new_start - 1, [&](const Tuple& t) {
          agg_.Subtract(t.payload);
          ++stats.visited;
        });
      }
      if (new_end > prev_end_) {
        scan(prev_end_ + 1, new_end, [&](const Tuple& t) {
          agg_.Add(t.payload);
          ++stats.visited;
        });
      }
    }
    prev_start_ = new_start;
    prev_end_ = new_end;
    valid_ = true;
    return stats;
  }

  /// Drops the running state; the next Slide() recomputes. Consumers call
  /// this when the owner's eviction horizon may have passed prev_start.
  void Invalidate() { valid_ = false; }

  /// Installs an externally computed full-window aggregate for
  /// [start, end]. The columnar batch kernel calls this after finalizing
  /// a key-group in bulk in watermark mode (an eager window may still be
  /// missing probes, so it invalidates instead): the group's last window
  /// was aggregated from staged columns, so handing it over keeps the
  /// overlap precondition (prev window at most one window behind the
  /// next scalar slide) that the eviction read-floor accounting relies
  /// on. Like any state after a Subtract, only the invertible components
  /// of `agg` are meaningful.
  void Reseed(Timestamp start, Timestamp end, const AggState& agg) {
    agg_ = agg;
    prev_start_ = start;
    prev_end_ = end;
    valid_ = true;
  }

  bool valid() const { return valid_; }
  Timestamp prev_start() const { return prev_start_; }
  Timestamp prev_end() const { return prev_end_; }
  const AggState& agg() const { return agg_; }

 private:
  AggState agg_;
  Timestamp prev_start_ = 0;
  Timestamp prev_end_ = -1;
  bool valid_ = false;
};

}  // namespace oij

#endif  // OIJ_WINDOW_INCREMENTAL_WINDOW_H_
