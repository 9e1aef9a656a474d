#ifndef OIJ_JOIN_FINALIZE_DRIVER_H_
#define OIJ_JOIN_FINALIZE_DRIVER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "col/column_batch.h"
#include "col/sweep_merge.h"
#include "common/clock.h"
#include "join/engine.h"

namespace oij {

/// A base tuple waiting for its window to become complete.
struct PendingBase {
  Tuple tuple;
  int64_t arrival_us;

  bool operator>(const PendingBase& other) const {
    return tuple.ts > other.tuple.ts;
  }
};

/// Pending bases of one (joiner, query), oldest event time on top.
using PendingQueue = std::priority_queue<PendingBase, std::vector<PendingBase>,
                                         std::greater<PendingBase>>;

/// Joiner-local counters of a finalizing engine, merged into the run's
/// EngineStats at Finish().
struct JoinerCounters {
  uint64_t processed = 0;
  uint64_t evicted = 0;
  uint64_t peak_buffered = 0;
  uint64_t visited = 0;
  uint64_t matched = 0;
  double effectiveness_sum = 0.0;
  uint64_t join_ops = 0;
  uint64_t columnar_bases = 0;
  uint64_t columnar_groups = 0;
  uint64_t columnar_fallbacks = 0;
  TimeBreakdown breakdown;
  LatencyRecorder latency;
  SampledCacheProbe cache_probe;

  /// Counts one join operation that matched `op_matched` of the
  /// `op_visited` tuples it examined. Effectiveness (Eq. 1) is defined
  /// on [0, 1]; delta gathers into resident windows and shared group
  /// gathers can examine fewer tuples than the window holds, so the
  /// ratio is clamped.
  void CountJoinOp(uint64_t op_matched, uint64_t op_visited) {
    matched += op_matched;
    effectiveness_sum +=
        op_visited == 0 ? 1.0
                        : std::min(1.0, static_cast<double>(op_matched) /
                                            static_cast<double>(op_visited));
    ++join_ops;
  }

  /// Adds this joiner's counters to `stats`. Call once per joiner, in
  /// joiner order: it appends to per_joiner_processed.
  void MergeInto(EngineStats* stats) const {
    stats->per_joiner_processed.push_back(processed);
    stats->results += join_ops;
    stats->visited += visited;
    stats->matched += matched;
    stats->effectiveness_sum += effectiveness_sum;
    stats->join_ops += join_ops;
    stats->breakdown.Merge(breakdown);
    stats->latency.Merge(latency);
    stats->evicted_tuples += evicted;
    stats->peak_buffered_tuples += peak_buffered;
    stats->columnar_bases += columnar_bases;
    stats->columnar_groups += columnar_groups;
    stats->columnar_fallbacks += columnar_fallbacks;
  }
};

/// What a gather hands the sweep: ts-sorted probe columns covering the
/// group's union window, and how many index tuples it visited.
struct Gathered {
  col::ProbeSpan probes;
  uint64_t visited = 0;
};

/// One key-group of a columnar drain after gather and sweep: the bases
/// at sorted stage positions [begin, begin + size), their ts-sorted
/// probes, and each base's window slice of those probes.
struct ColumnarGroup {
  const col::ColumnarBatchStage* stage;
  size_t begin;
  size_t size;
  col::ProbeSpan probes;
  const col::BaseSlice* slices;
  uint64_t gathered;  ///< tuples the gather visited for the whole group

  Tuple Base(size_t i) const { return stage->SortedTuple(begin + i); }
  int64_t Arrival(size_t i) const { return stage->SortedArrival(begin + i); }
  col::SliceAgg Aggregate(size_t i) const {
    return col::AggregateSlice(probes.payload + slices[i].lo,
                               slices[i].hi - slices[i].lo);
  }
};

/// The finalize loop Key-OIJ and Scale-OIJ share (DESIGN.md §5h): pop
/// one query's ready bases and join them one at a time or, for runs
/// long enough to amortize a transpose, key-group at a time through the
/// columnar kernels. Engines supply the readiness predicate and the
/// per-base, gather and emit callbacks; the driver owns the staging
/// scratch, reused across drains.
class FinalizeDriver {
 public:
  /// Key-groups smaller than this replay per base even inside a
  /// columnar run: a group of one or two bases has nothing to amortize
  /// the per-group gather against.
  static constexpr uint32_t kMinGroup = 4;

  /// `arena` lends slabs to the staging columns (nullptr: heap).
  explicit FinalizeDriver(NodeArena* arena = nullptr)
      : stage_(arena), probes_(arena) {}

  /// Pops bases off `pending` while `ready(tuple)` holds and joins them.
  /// Pop order is non-decreasing ts, which the stable key sort keeps
  /// within each group: the sweep-merge precondition.
  ///  * A run shorter than `min_run` replays `join_one(tuple, arrival)`
  ///    in pop order.
  ///  * Otherwise each key-group of at least kMinGroup bases runs
  ///    `gather(key, lo, hi, &scratch)` for the union window [lo, hi]
  ///    (returning the Gathered probes, in `scratch` or elsewhere), the
  ///    sweep, and `emit(group)`. Smaller groups, and groups whose
  ///    probes hold a NaN/Inf payload, replay `join_one` in sorted order.
  /// Gather and sweep are timed as lookup, emit as match. Returns
  /// whether anything was popped.
  template <typename Ready, typename JoinOne, typename Gather, typename Emit>
  bool Drain(PendingQueue& pending, const IntervalWindow& window,
             uint32_t min_run, JoinerCounters& c, Ready&& ready,
             JoinOne&& join_one, Gather&& gather, Emit&& emit) {
    stage_.Clear();
    while (!pending.empty() && ready(pending.top().tuple)) {
      stage_.Append(pending.top().tuple, pending.top().arrival_us);
      pending.pop();
    }
    if (stage_.size() < min_run) {
      for (size_t i = 0; i < stage_.size(); ++i) {
        join_one(stage_.TupleAt(i), stage_.ArrivalAt(i));
      }
      return !stage_.empty();
    }
    stage_.SortByKey();
    stage_.ForEachGroup([&](Key key, size_t begin, size_t end) {
      auto replay = [&] {
        for (size_t i = begin; i < end; ++i) {
          join_one(stage_.SortedTuple(i), stage_.SortedArrival(i));
        }
      };
      const size_t n = end - begin;
      if (n < kMinGroup) return replay();

      group_ts_.resize(n);
      for (size_t i = 0; i < n; ++i) group_ts_[i] = stage_.SortedTs(begin + i);
      probes_.Clear();
      Gathered g;
      {
        ScopedTimerNs timer(&c.breakdown.lookup_ns);
        g = gather(key, window.start_for(group_ts_[0]),
                   window.end_for(group_ts_[n - 1]), &probes_);
      }
      if (!g.probes.finite) {
        // The SIMD min/max lanes would reorder NaN propagation.
        ++c.columnar_fallbacks;
        return replay();
      }
      slices_.resize(n);
      {
        ScopedTimerNs timer(&c.breakdown.lookup_ns);
        col::ComputeWindowSlices(group_ts_.data(), n, window, g.probes.ts,
                                 g.probes.size, slices_.data());
      }
      {
        ScopedTimerNs timer(&c.breakdown.match_ns);
        emit(ColumnarGroup{&stage_, begin, n, g.probes, slices_.data(),
                           g.visited});
      }
      // The probes were visited once for the whole group, not per base.
      c.visited += g.visited;
      c.columnar_bases += n;
      ++c.columnar_groups;
    });
    return true;
  }

 private:
  col::ColumnarBatchStage stage_;
  col::ProbeColumns probes_;
  std::vector<col::BaseSlice> slices_;
  std::vector<Timestamp> group_ts_;
};

/// Appends every base still pending in any of `slots` (each holding a
/// `pending` PendingQueue) as a kBase event, sorted by (ts, key,
/// payload) and deduplicated across slots: snapshot replay fans a base
/// back out to every active query.
template <typename Slot>
void AppendPendingBases(const std::vector<Slot>& slots,
                        std::vector<StreamEvent>* out) {
  std::vector<Tuple> bases;
  for (const Slot& slot : slots) {
    for (PendingQueue pending = slot.pending; !pending.empty();
         pending.pop()) {
      bases.push_back(pending.top().tuple);
    }
  }
  auto tuple_key = [](const Tuple& t) {
    return std::make_tuple(t.ts, t.key, std::bit_cast<uint64_t>(t.payload));
  };
  std::sort(bases.begin(), bases.end(), [&](const Tuple& a, const Tuple& b) {
    return tuple_key(a) < tuple_key(b);
  });
  bases.erase(std::unique(bases.begin(), bases.end(),
                          [&](const Tuple& a, const Tuple& b) {
                            return tuple_key(a) == tuple_key(b);
                          }),
              bases.end());
  for (const Tuple& t : bases) {
    StreamEvent ev;
    ev.stream = StreamId::kBase;
    ev.tuple = t;
    out->push_back(ev);
  }
}

}  // namespace oij

#endif  // OIJ_JOIN_FINALIZE_DRIVER_H_
