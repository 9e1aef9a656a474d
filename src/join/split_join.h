#ifndef OIJ_JOIN_SPLIT_JOIN_H_
#define OIJ_JOIN_SPLIT_JOIN_H_

#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "join/engine.h"

namespace oij {

/// SplitJoin (Najafi et al., USENIX ATC'16) adapted to OIJ semantics — the
/// paper's third comparison point (Section V-D): "we follow their
/// distribution and collection framework for parallelism, and add an extra
/// predicate to filter out the tuples outside the relative window".
///
/// Top-down data flow: every tuple is *broadcast* to all joiners. Exactly
/// one joiner (round-robin by sequence) *stores* each probe tuple, so the
/// probe state is sliced evenly; every joiner *processes* every base tuple
/// against its local slice and forwards a partial aggregate to a collector
/// thread, which merges the J partials per base tuple and emits.
///
/// This reproduces both of SplitJoin's documented properties: inherent
/// balance (round-robin storage) and the costs the paper highlights —
/// J-way broadcast traffic, all-joiners-process-all-base-tuples, full
/// unsorted scans, and merge overhead.
class SplitJoinEngine : public ParallelEngineBase {
 public:
  SplitJoinEngine(const QuerySpec& spec, const EngineOptions& options,
                  ResultSink* sink);

  std::string_view name() const override { return "split-join"; }

 protected:
  void Route(const Event& event) override;
  void OnTuple(uint32_t joiner, const Event& event) override;
  void OnWatermark(uint32_t joiner, Timestamp watermark) override;
  void OnFlush(uint32_t joiner) override;
  void StartAuxiliary() override;
  void StopAuxiliary() override;
  void CollectStats(EngineStats* stats) override;

 private:
  /// Partial aggregate from one joiner for one base tuple.
  struct Partial {
    enum class Kind : uint8_t { kPartial = 0, kDone };
    Kind kind = Kind::kPartial;
    uint64_t base_seq = 0;
    Tuple base;
    int64_t arrival_us = 0;
    double sum = 0.0;
    uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    uint64_t visited = 0;
  };

  struct PendingBase {
    Tuple tuple;
    int64_t arrival_us;
    uint64_t seq;

    bool operator>(const PendingBase& other) const {
      return tuple.ts > other.tuple.ts;
    }
  };

  struct JoinerState {
    std::unordered_map<Key, std::vector<Tuple>> slice;
    std::priority_queue<PendingBase, std::vector<PendingBase>,
                        std::greater<PendingBase>>
        pending;
    Timestamp max_seen = kMinTimestamp;
    Timestamp last_wm = kMinTimestamp;

    uint64_t processed = 0;
    uint64_t buffered = 0;
    uint64_t peak_buffered = 0;
    uint64_t evicted = 0;
    uint64_t visited = 0;
    uint64_t matched = 0;
    double effectiveness_sum = 0.0;
    uint64_t join_ops = 0;
    TimeBreakdown breakdown;
    SampledCacheProbe cache_probe;
  };

  void DrainPending(uint32_t joiner, JoinerState& s);
  void ProcessBase(uint32_t joiner, JoinerState& s, const Tuple& base,
                   int64_t arrival_us, uint64_t seq);
  void Evict(JoinerState& s);

  void CollectorMain();

  std::vector<std::unique_ptr<JoinerState>> states_;
  std::vector<std::unique_ptr<SpscQueue<Partial>>> partial_queues_;
  std::thread collector_;

  // Collector-owned.
  struct MergeSlot {
    AggState agg;
    uint32_t remaining = 0;
    Tuple base;
    int64_t arrival_us = 0;
  };
  std::unordered_map<uint64_t, MergeSlot> merge_;
  LatencyRecorder collector_latency_;
  uint64_t collector_results_ = 0;
};

}  // namespace oij

#endif  // OIJ_JOIN_SPLIT_JOIN_H_
