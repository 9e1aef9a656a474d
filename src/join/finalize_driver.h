#ifndef OIJ_JOIN_FINALIZE_DRIVER_H_
#define OIJ_JOIN_FINALIZE_DRIVER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <tuple>
#include <unordered_map>
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
};

/// Pending bases of one (joiner, query), kept per key: each key's run is
/// ts-ordered (ties in arrival order), and one min-heap files every key
/// with pending bases under its run's head ts. A base finalizes once its
/// key's window end is complete, so the ready bases of a key are a
/// prefix of its run, already grouped and sorted for the sweep merge.
///
/// A run is refiled whenever its head changes; the entry it was filed
/// under before is then stale (its ts is no longer the head's) and is
/// skipped when it reaches the top. The top is kept live, so it is the
/// oldest pending ts.
class PendingRuns {
 public:
  /// Files a base after the last one of its key with ts <= its own.
  /// Disorder is bounded by lateness, so the backward scan is short.
  void Push(const Tuple& t, int64_t arrival_us) {
    Run& run = runs_[t.key];
    std::vector<PendingBase>& bases = run.bases;
    size_t pos = bases.size();
    while (pos > run.head && bases[pos - 1].tuple.ts > t.ts) --pos;
    const bool new_head = pos == run.head;
    if (new_head && run.head > 0) {
      bases[--run.head] = PendingBase{t, arrival_us};
    } else {
      bases.insert(bases.begin() + static_cast<ptrdiff_t>(pos),
                   PendingBase{t, arrival_us});
    }
    if (new_head) File(t.ts, t.key);
  }

  bool empty() const { return heap_.empty(); }

  /// The oldest pending ts, or kMaxTimestamp when nothing is pending.
  Timestamp OldestTs() const {
    return heap_.empty() ? kMaxTimestamp : heap_.front().ts;
  }

  /// While the key with the oldest head has a ready head, removes that
  /// key's ready prefix — its bases whose window end is at most
  /// `through(key)` — and hands it to `fn(key, bases, n)`, ts-ordered.
  /// Stops at the first key whose head is not ready. Returns whether
  /// anything was taken.
  template <typename Through, typename Fn>
  bool TakeReady(const IntervalWindow& window, Through&& through, Fn&& fn) {
    bool took = false;
    while (!heap_.empty()) {
      const Key key = heap_.front().key;
      Run& run = runs_.find(key)->second;
      const PendingBase* first = run.bases.data() + run.head;
      const size_t live = run.bases.size() - run.head;
      const Timestamp limit = through(key);
      size_t n = 0;
      while (n < live && window.end_for(first[n].tuple.ts) <= limit) ++n;
      if (n == 0) break;
      fn(key, first, n);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      run.head += n;
      if (n == live) {
        run.bases.clear();
        run.head = 0;
      } else {
        if (run.head > run.bases.size() - run.head) {
          run.bases.erase(run.bases.begin(),
                          run.bases.begin() + static_cast<ptrdiff_t>(run.head));
          run.head = 0;
        }
        File(run.bases[run.head].tuple.ts, key);
      }
      PurgeStale();
      took = true;
    }
    return took;
  }

  /// Calls fn(base) for every pending base, key by key in ts order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, run] : runs_) {
      for (size_t i = run.head; i < run.bases.size(); ++i) fn(run.bases[i]);
    }
  }

 private:
  struct Run {
    std::vector<PendingBase> bases;  ///< [head, size) are pending
    size_t head = 0;
  };
  struct Filed {
    Timestamp ts;
    Key key;
  };
  /// Heap order: the oldest ts on top.
  struct Later {
    bool operator()(const Filed& a, const Filed& b) const {
      return a.ts > b.ts;
    }
  };

  void File(Timestamp ts, Key key) {
    heap_.push_back(Filed{ts, key});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Pops top entries until the top is live (its run's head ts).
  void PurgeStale() {
    while (!heap_.empty()) {
      const Run& run = runs_.find(heap_.front().key)->second;
      if (run.head < run.bases.size() &&
          run.bases[run.head].tuple.ts == heap_.front().ts) {
        return;
      }
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  /// Runs stay allocated once emptied, so a key's next bases reuse them.
  std::unordered_map<Key, Run> runs_;
  std::vector<Filed> heap_;
};

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

/// One key-group of a columnar drain after gather and sweep: the key's
/// ready bases (ts-ordered), their ts-sorted probes, and each base's
/// window slice of those probes.
struct ColumnarGroup {
  const PendingBase* bases;
  size_t size;
  col::ProbeSpan probes;
  const col::BaseSlice* slices;
  uint64_t gathered;  ///< tuples the gather visited for the whole group

  const Tuple& Base(size_t i) const { return bases[i].tuple; }
  int64_t Arrival(size_t i) const { return bases[i].arrival_us; }
  col::SliceAgg Aggregate(size_t i) const {
    return col::AggregateSlice(probes.payload + slices[i].lo,
                               slices[i].hi - slices[i].lo);
  }
};

/// The finalize loop Key-OIJ and Scale-OIJ share (DESIGN.md §5h): take
/// one query's ready bases key by key and join each key-group one base
/// at a time or, when it is long enough to amortize a gather, as a unit
/// through the columnar kernels. Engines supply the readiness bound and
/// the per-base, gather and emit callbacks; the driver owns the sweep
/// scratch, reused across drains.
class FinalizeDriver {
 public:
  /// Takes the ready prefix of each key's pending run (see
  /// PendingRuns::TakeReady; `through(key)` is the highest complete
  /// window end of the key) and joins it. Each key-group is ts-ordered:
  /// the sweep-merge precondition.
  ///  * A group shorter than `min_run` replays `join_one(tuple, arrival)`
  ///    in ts order.
  ///  * Otherwise it runs `gather(key, lo, hi, &scratch)` for the union
  ///    window [lo, hi] (returning the Gathered probes, in `scratch` or
  ///    elsewhere), the sweep, and `emit(group)`. A group whose probes
  ///    hold a NaN/Inf payload replays `join_one` instead.
  /// Gather and sweep are timed as lookup, emit as match. Returns
  /// whether anything was taken.
  template <typename Through, typename JoinOne, typename Gather,
            typename Emit>
  bool Drain(PendingRuns& pending, const IntervalWindow& window,
             uint32_t min_run, JoinerCounters& c, Through&& through,
             JoinOne&& join_one, Gather&& gather, Emit&& emit) {
    return pending.TakeReady(window, through, [&](Key key,
                                                  const PendingBase* bases,
                                                  size_t n) {
      auto replay = [&] {
        for (size_t i = 0; i < n; ++i) {
          join_one(bases[i].tuple, bases[i].arrival_us);
        }
      };
      if (n < min_run) return replay();

      group_ts_.resize(n);
      for (size_t i = 0; i < n; ++i) group_ts_[i] = bases[i].tuple.ts;
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
        emit(ColumnarGroup{bases, n, g.probes, slices_.data(), g.visited});
      }
      // The probes were visited once for the whole group, not per base.
      c.visited += g.visited;
      c.columnar_bases += n;
      ++c.columnar_groups;
    });
  }

 private:
  col::ProbeColumns probes_;
  std::vector<col::BaseSlice> slices_;
  std::vector<Timestamp> group_ts_;
};

/// Appends every base still pending in any of `slots` (each holding a
/// `pending` PendingRuns) as a kBase event, sorted by (ts, key, payload).
/// Snapshot replay fans a base back out to every active query, so each
/// distinct tuple appears as many times as the most any one slot holds.
template <typename Slot>
void AppendPendingBases(const std::vector<Slot>& slots,
                        std::vector<StreamEvent>* out) {
  auto less = [](const Tuple& a, const Tuple& b) {
    return std::make_tuple(a.ts, a.key, std::bit_cast<uint64_t>(a.payload)) <
           std::make_tuple(b.ts, b.key, std::bit_cast<uint64_t>(b.payload));
  };
  std::vector<Tuple> bases;
  std::vector<Tuple> slot_bases;
  std::vector<Tuple> merged;
  for (const Slot& slot : slots) {
    slot_bases.clear();
    slot.pending.ForEach(
        [&](const PendingBase& b) { slot_bases.push_back(b.tuple); });
    std::sort(slot_bases.begin(), slot_bases.end(), less);
    // A multiset union: each tuple max(count here, count so far) times.
    merged.clear();
    std::set_union(bases.begin(), bases.end(), slot_bases.begin(),
                   slot_bases.end(), std::back_inserter(merged), less);
    bases.swap(merged);
  }
  for (const Tuple& t : bases) {
    StreamEvent ev;
    ev.stream = StreamId::kBase;
    ev.tuple = t;
    out->push_back(ev);
  }
}

}  // namespace oij

#endif  // OIJ_JOIN_FINALIZE_DRIVER_H_
