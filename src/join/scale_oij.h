#ifndef OIJ_JOIN_SCALE_OIJ_H_
#define OIJ_JOIN_SCALE_OIJ_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "col/key_window.h"
#include "ebr/epoch_manager.h"
#include "join/engine.h"
#include "join/finalize_driver.h"
#include "mem/node_arena.h"
#include "sched/load_stats.h"
#include "sched/partition_table.h"
#include "sched/rebalancer.h"
#include "skiplist/time_travel_index.h"

namespace oij {

/// Scale-OIJ — the paper's contribution (Section V), combining:
///
///  1. *SWMR time-travel index* (per joiner): a two-layer skip-list that
///     locates window boundaries in O(log) and visits only in-window
///     tuples, making lateness irrelevant to join cost (Fig 11).
///  2. *Dynamic balanced schedule*: keys hash into partitions; each
///     partition is owned by a virtual team of joiners that grows by
///     replication whenever the greedy rebalancer (Alg. 3) finds the load
///     skewed. Tuples of a shared partition round-robin across the team;
///     every member writes its own index and reads the whole team's
///     (Figs 13/14).
///  3. *Incremental window aggregation*: each (joiner, query, key) keeps
///     one resident window (col::KeyWindow) of ts-sorted probe columns up
///     to the team's completeness horizon. A finalize gathers only the
///     delta above its end and trims it below its first window start, so
///     overlapping windows share the index reads, and takes sum/count/avg
///     from prefix sums and min/max from a monotonic deque over it
///     (Subtract-on-Evict, Fig 16). One base and a columnar key-group
///     read and advance the same window.
///
/// Cross-thread protocol. Each joiner publishes `progress` — the event
/// time through which it has durably processed its queue (its last
/// watermark punctuation in kWatermark mode; max observed timestamp in
/// kEager mode). A base tuple finalizes only once min(progress) over its
/// partition's team has passed its window end; the acquire-load of a
/// teammate's progress synchronizes with that teammate's release-store,
/// so every insert the teammate performed earlier is visible to the scan.
/// Teams only grow and a joiner refreshes its schedule snapshot at every
/// drain in which PartitionTable::version() has moved, so a finalizing
/// joiner's team view always covers every member that may hold
/// in-window tuples.
///
/// Eviction. Each joiner additionally publishes a monotone `read_floor`:
/// a lower bound on every index timestamp it may still scan, derived from
/// min(last watermark, oldest pending base) minus the window reach. No
/// read goes below the window start of the base it finalizes: a resident
/// window is extended only upward and restarts when a window would start
/// below it. Owners unlink index prefixes strictly below min(read_floor)
/// over all joiners; unlinked nodes are freed via EBR once every reader
/// epoch drains, so scans already in flight stay memory-safe. Resident
/// windows that end a window reach below the joiner's own floor (unread
/// for a whole window) are dropped.
class ScaleOijEngine : public ParallelEngineBase {
 public:
  ScaleOijEngine(const QuerySpec& spec, const EngineOptions& options,
                 ResultSink* sink);

  std::string_view name() const override { return "scale-oij"; }

 protected:
  void Route(const Event& event) override;
  void OnTuple(uint32_t joiner, const Event& event) override;
  void OnWatermark(uint32_t joiner, Timestamp watermark) override;
  void OnBatchEnd(uint32_t joiner) override;
  bool OnIdle(uint32_t joiner) override;
  void OnFlush(uint32_t joiner) override;
  bool SupportsMultiQuery() const override { return true; }
  void OnAddQuery(uint32_t joiner, QueryRuntime& query) override;
  void CollectStats(EngineStats* stats) override;
  void SampleGauges(MemStats* mem, NumaStats* numa) const override;
  bool CollectSnapshotState(uint32_t joiner,
                            std::vector<StreamEvent>* out) override;

 private:
  /// Per-(joiner, query) runtime state, indexed by query ordinal. Every
  /// standing query keeps its own pending bases (its window end gates
  /// finalization) and its own resident key windows, but all of them
  /// read the one shared time-travel index.
  struct QuerySlot {
    PendingRuns pending;
    std::unordered_map<Key, col::KeyWindow> windows;
  };

  struct JoinerState : JoinerCounters {
    JoinerState(NodeArena& arena, EpochManager* ebr, uint32_t slot,
                uint64_t seed)
        : ebr_slot(slot),
          index(arena, ebr, slot, seed),
          annex(arena, ebr, slot, seed ^ 0xa22e7ULL) {
      slots.resize(1);  // ordinal 0: the primary query
    }

    uint32_t ebr_slot;
    TimeTravelIndex index;
    /// Annex index for lateness-violating probes (multi-query mode with
    /// at least one best-effort query). Only best-effort queries scan
    /// it, so drop/side-channel queries keep exact, late-free windows
    /// over the main index. Shares the joiner's arena and EBR slot with
    /// `index`.
    TimeTravelIndex annex;
    std::vector<QuerySlot> slots;  ///< indexed by query ordinal
    std::shared_ptr<const Schedule> schedule;  // joiner-local snapshot

    /// Takes ready key-groups off `slots[q].pending`; its sweep scratch
    /// is reused across drains.
    FinalizeDriver driver;
    /// Finalize scratch: a single base's stateless gather, a group's
    /// aggregates, the min/max deque.
    col::ProbeColumns probes;
    std::vector<AggState> aggs;
    std::vector<uint32_t> deque;

    /// Max window reach over every query this joiner has ever been told
    /// about (monotone — removed queries keep contributing, so already
    /// pending windows stay scannable).
    Timestamp reach = 0;

    /// Published processing progress (event time); see class comment.
    alignas(64) std::atomic<Timestamp> progress{kMinTimestamp};

    /// Published lower bound on every index timestamp this joiner may
    /// still scan: min(last watermark, oldest pending base) − PRE − 1.
    /// Owners evict strictly below min(read_floor) over all joiners.
    alignas(64) std::atomic<Timestamp> read_floor{kMinTimestamp};

    Timestamp max_seen = kMinTimestamp;
    Timestamp last_wm = kMinTimestamp;
  };

  void PublishProgress(JoinerState& s);
  void PublishReadFloor(JoinerState& s);

  /// Smallest published progress over `team`.
  Timestamp TeamMinProgress(const std::vector<uint32_t>& team) const;
  /// Event time through which every non-late probe of `team` is present
  /// (the completeness horizon resident windows carry up to).
  Timestamp TeamCompleteThrough(const std::vector<uint32_t>& team) const;
  /// Smallest published read floor over all joiners (eviction bound).
  Timestamp GlobalMinReadFloor() const;

  /// Finalizes every ready base; returns whether any was popped.
  bool DrainPending(uint32_t joiner, JoinerState& s);
  /// Whether `qspec` must also scan the late-probe annexes.
  bool ScanAnnex(const QuerySpec& qspec) const;
  /// Gathers the probes of `key` that bases with windows inside [lo, hi]
  /// need, into ts-sorted columns. Incremental aggregation advances the
  /// key's resident window and sets `*window` to it; otherwise (the
  /// recompute arm, a best-effort query with a dirty annex, or a
  /// non-finite payload) the whole of [lo, hi] is gathered into
  /// `scratch` and `*window` is null.
  Gathered GatherKey(JoinerState& s, const QuerySpec& qspec, QuerySlot& slot,
                     Key key, Timestamp lo, Timestamp hi,
                     col::ProbeColumns* scratch, col::KeyWindow** window);
  /// Finalizes one base: a key-group of one.
  void JoinOne(JoinerState& s, QueryRuntime& query, QuerySlot& slot,
               const Tuple& base, int64_t arrival_us);
  /// Columnar emit of one gathered key-group; `window` is what its
  /// GatherKey set.
  void EmitGroup(JoinerState& s, QueryRuntime& query, const ColumnarGroup& g,
                 const col::KeyWindow* window);
  void Evict(JoinerState& s);
  bool HavePending(const JoinerState& s) const;

  /// Joiner-owned slab arenas, one per joiner. Declared before ebr_ and
  /// states_: destruction runs states_ (frees live nodes into the
  /// arenas), then ebr_ (drains retired runs into them), then the arenas
  /// themselves — matching NodeArena's lifetime contract.
  std::vector<std::unique_ptr<NodeArena>> arenas_;
  EpochManager ebr_;
  PartitionTable table_;
  LoadStats router_stats_;
  Rebalancer rebalancer_;

  // Router-thread-local routing state.
  std::shared_ptr<const Schedule> router_schedule_;
  std::vector<uint32_t> round_robin_;
  uint64_t events_since_rebalance_ = 0;
  uint64_t rebalances_ = 0;

  /// True when placement resolved more than one node: the rebalancer
  /// runs socket-aware and the cross counters are live.
  bool numa_topo_ = false;

  /// Cross-socket scheduler activity (driver thread writes, admin
  /// threads read — single-writer relaxed atomics): partition replicas
  /// the rebalancer placed on a remote node, and round-robin dispatches
  /// that left the team leader's node.
  std::atomic<uint64_t> numa_cross_replications_{0};
  std::atomic<uint64_t> numa_cross_dispatches_{0};

  std::vector<std::unique_ptr<JoinerState>> states_;

  /// Set (never cleared) once any joiner stored a late probe in its
  /// annex. From then on best-effort queries abandon their resident
  /// windows and gather main + annex whole — drop/side-channel queries
  /// are unaffected either way.
  std::atomic<bool> annex_dirty_{false};
};

}  // namespace oij

#endif  // OIJ_JOIN_SCALE_OIJ_H_
