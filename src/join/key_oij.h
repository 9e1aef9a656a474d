#ifndef OIJ_JOIN_KEY_OIJ_H_
#define OIJ_JOIN_KEY_OIJ_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "join/engine.h"
#include "join/finalize_driver.h"

namespace oij {

/// Key-OIJ — the Flink-style key-partitioned parallel OIJ baseline
/// (Section II-C), re-implemented from scratch in C++ as the paper's own
/// methodology does (Section III-D).
///
/// Every tuple is routed to the joiner statically bound to its key's hash.
/// Each joiner keeps one *unsorted* buffer per key; a join operation scans
/// that key's entire buffer and filters on the window predicate (the "full
/// data scan" the paper attributes to the Flink implementation). Tuples
/// are only evicted once the watermark proves no future window can contain
/// them, so a large lateness directly inflates every scan — the behaviour
/// Figs 4-9 dissect.
class KeyOijEngine : public ParallelEngineBase {
 public:
  KeyOijEngine(const QuerySpec& spec, const EngineOptions& options,
               ResultSink* sink);

  std::string_view name() const override { return "key-oij"; }

 protected:
  void Route(const Event& event) override;
  void OnTuple(uint32_t joiner, const Event& event) override;
  void OnWatermark(uint32_t joiner, Timestamp watermark) override;
  void OnBatchEnd(uint32_t joiner) override;
  bool SupportsMultiQuery() const override { return true; }
  void OnAddQuery(uint32_t joiner, QueryRuntime& query) override;
  void CollectStats(EngineStats* stats) override;
  bool CollectSnapshotState(uint32_t joiner,
                            std::vector<StreamEvent>* out) override;

 private:
  /// Per-(joiner, query) pending bases, indexed by query ordinal; every
  /// query gates finalization on its own FOL offset but scans the one
  /// shared set of per-key buffers.
  struct QuerySlot {
    PendingRuns pending;
  };

  /// All state owned by one joiner thread; padded out to its own cache
  /// lines via unique_ptr indirection.
  struct JoinerState : JoinerCounters {
    std::unordered_map<Key, std::vector<Tuple>> buffers;
    /// Lateness-violating probes, quarantined so drop/side-channel
    /// queries keep exact windows; only best-effort queries scan these.
    /// Key-partitioned routing makes this joiner-local (no atomics).
    std::unordered_map<Key, std::vector<Tuple>> annex;
    std::vector<QuerySlot> slots{1};  ///< indexed by query ordinal
    std::vector<const Tuple*> scratch_matches;

    FinalizeDriver driver;

    /// Max (PRE + FOL) over every query this joiner has ever been told
    /// about — monotone, bounds eviction.
    Timestamp reach = 0;

    Timestamp max_seen = kMinTimestamp;
    Timestamp last_wm = kMinTimestamp;

    uint64_t buffered = 0;
  };

  void DrainPending(uint32_t joiner, JoinerState& s);
  /// Calls fn(tuple) for every stored tuple of `key` the query may join:
  /// the key's whole unsorted buffer, plus the late-probe annex for
  /// best-effort queries.
  template <typename Fn>
  static void ScanKey(JoinerState& s, const QuerySpec& qspec, Key key,
                      Fn&& fn);
  void JoinOne(JoinerState& s, QueryRuntime& query, const Tuple& base,
               int64_t arrival_us);
  void Evict(JoinerState& s);

  std::vector<std::unique_ptr<JoinerState>> states_;
};

}  // namespace oij

#endif  // OIJ_JOIN_KEY_OIJ_H_
