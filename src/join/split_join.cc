#include "join/split_join.h"

#include <algorithm>
#include <limits>

#include "common/clock.h"
#include "common/thread_util.h"

namespace oij {

SplitJoinEngine::SplitJoinEngine(const QuerySpec& spec,
                                 const EngineOptions& options,
                                 ResultSink* sink)
    : ParallelEngineBase(spec, options, sink) {
  states_.reserve(options.num_joiners);
  partial_queues_.reserve(options.num_joiners);
  for (uint32_t j = 0; j < options.num_joiners; ++j) {
    states_.push_back(std::make_unique<JoinerState>());
    states_.back()->cache_probe =
        SampledCacheProbe(options.cache_sim, options.cache_sample_period);
    partial_queues_.push_back(
        std::make_unique<SpscQueue<Partial>>(options.queue_capacity));
  }
}

void SplitJoinEngine::Route(const Event& event) {
  // Broadcast: every joiner sees every tuple (the traffic cost the paper
  // attributes to SplitJoin). The storing joiner is derived from the
  // router sequence number, so no extra designation field is needed.
  for (uint32_t j = 0; j < num_joiners(); ++j) {
    EnqueueTo(j, event);
  }
}

void SplitJoinEngine::OnTuple(uint32_t joiner, const Event& event) {
  JoinerState& s = *states_[joiner];
  ++s.processed;
  if (event.tuple.ts > s.max_seen) s.max_seen = event.tuple.ts;

  if (event.stream == StreamId::kProbe) {
    // Store step: exactly one joiner retains the tuple (round-robin by
    // router sequence keeps slices balanced without coordination).
    if (event.seq % num_joiners() == joiner) {
      s.slice[event.tuple.key].push_back(event.tuple);
      ++s.buffered;
      if (s.buffered > s.peak_buffered) s.peak_buffered = s.buffered;
    }
  } else {
    // Process step: every joiner probes its slice for every base tuple.
    if (event.tuple.ts + spec().window.fol <=
        CompleteThrough(s.last_wm, s.max_seen)) {
      ProcessBase(joiner, s, event.tuple, event.arrival_us, event.seq);
    } else {
      s.pending.push(PendingBase{event.tuple, event.arrival_us, event.seq});
    }
  }
  DrainPending(joiner, s);
}

void SplitJoinEngine::OnWatermark(uint32_t joiner, Timestamp watermark) {
  JoinerState& s = *states_[joiner];
  if (watermark > s.last_wm) s.last_wm = watermark;
  DrainPending(joiner, s);
  Evict(s);
}

void SplitJoinEngine::OnFlush(uint32_t joiner) {
  Partial done;
  done.kind = Partial::Kind::kDone;
  partial_queues_[joiner]->PushBounded(done, /*deadline_ns=*/-1,
                                       stop_token());
}

void SplitJoinEngine::DrainPending(uint32_t joiner, JoinerState& s) {
  const Timestamp threshold = CompleteThrough(s.last_wm, s.max_seen);
  while (!s.pending.empty() &&
         s.pending.top().tuple.ts + spec().window.fol <= threshold) {
    const PendingBase pb = s.pending.top();
    s.pending.pop();
    ProcessBase(joiner, s, pb.tuple, pb.arrival_us, pb.seq);
  }
}

void SplitJoinEngine::ProcessBase(uint32_t joiner, JoinerState& s,
                                  const Tuple& base, int64_t arrival_us,
                                  uint64_t seq) {
  const Timestamp start = spec().window.start_for(base.ts);
  const Timestamp end = spec().window.end_for(base.ts);

  AggState agg;
  uint64_t op_visited = 0;
  uint64_t op_matched = 0;
  static thread_local std::vector<const Tuple*> scratch;
  scratch.clear();
  {
    // Lookup: full scan of the local slice with the extra interval
    // predicate the paper adds to SplitJoin.
    ScopedTimerNs timer(&s.breakdown.lookup_ns);
    auto it = s.slice.find(base.key);
    if (it != s.slice.end()) {
      for (const Tuple& r : it->second) {
        ++op_visited;
        s.cache_probe.Touch(&r);
        if (r.ts >= start && r.ts <= end) {
          scratch.push_back(&r);
        }
      }
    }
  }
  {
    ScopedTimerNs timer(&s.breakdown.match_ns);
    for (const Tuple* r : scratch) agg.Add(r->payload);
    op_matched = scratch.size();
  }
  (void)op_matched;

  s.visited += op_visited;
  s.matched += agg.count;
  s.effectiveness_sum += op_visited == 0
                             ? 1.0
                             : static_cast<double>(agg.count) /
                                   static_cast<double>(op_visited);
  ++s.join_ops;

  Partial partial;
  partial.kind = Partial::Kind::kPartial;
  partial.base_seq = seq;
  partial.base = base;
  partial.arrival_us = arrival_us;
  partial.sum = agg.sum;
  partial.count = agg.count;
  partial.min = agg.min;
  partial.max = agg.max;
  partial.visited = op_visited;
  partial_queues_[joiner]->PushBounded(partial, /*deadline_ns=*/-1,
                                       stop_token());
}

void SplitJoinEngine::Evict(JoinerState& s) {
  if (s.last_wm == kMinTimestamp) return;
  const Timestamp bound =
      s.last_wm == kMaxTimestamp
          ? kMaxTimestamp
          : s.last_wm - spec().window.pre - spec().window.fol;
  for (auto& [key, buffer] : s.slice) {
    auto keep_end =
        std::remove_if(buffer.begin(), buffer.end(),
                       [bound](const Tuple& t) { return t.ts < bound; });
    const size_t removed = static_cast<size_t>(buffer.end() - keep_end);
    if (removed > 0) {
      buffer.erase(keep_end, buffer.end());
      s.evicted += removed;
      s.buffered -= removed;
    }
  }
}

void SplitJoinEngine::StartAuxiliary() {
  collector_ = std::thread([this] { CollectorMain(); });
}

void SplitJoinEngine::StopAuxiliary() {
  if (collector_.joinable()) collector_.join();
}

void SplitJoinEngine::CollectorMain() {
  SetCurrentThreadName("sj-collector");
  if (placement().active && placement().aux_cpu >= 0) {
    // The collector merges every joiner's partials; parking it on the
    // placement plan's auxiliary CPU keeps it off the joiners' cores.
    TryPinCurrentThreadTo(placement().aux_cpu);
  }
  uint32_t done_count = 0;
  Backoff backoff;
  Partial partial;
  // Every joiner pushes its done marker after its last partial (FIFO), so
  // once all markers are seen every mergeable slot has completed. On an
  // aborted run a marker may never come; the stop token ends the wait.
  while (done_count < num_joiners() && !stop_requested()) {
    bool any = false;
    for (uint32_t j = 0; j < num_joiners(); ++j) {
      while (partial_queues_[j]->TryPop(&partial)) {
        any = true;
        if (partial.kind == Partial::Kind::kDone) {
          ++done_count;
          continue;
        }
        MergeSlot& slot = merge_[partial.base_seq];
        if (slot.remaining == 0) {
          slot.remaining = num_joiners();
          slot.base = partial.base;
          slot.arrival_us = partial.arrival_us;
        }
        AggState piece;
        piece.sum = partial.sum;
        piece.count = partial.count;
        piece.min = partial.count == 0
                        ? std::numeric_limits<double>::infinity()
                        : partial.min;
        piece.max = partial.count == 0
                        ? -std::numeric_limits<double>::infinity()
                        : partial.max;
        slot.agg.Merge(piece);
        if (--slot.remaining == 0) {
          JoinResult result;
          result.base = slot.base;
          result.aggregate = slot.agg.Result(spec().agg);
          result.match_count = slot.agg.count;
          result.arrival_us = slot.arrival_us;
          result.emit_us = MonotonicNowUs();
          collector_latency_.Record(result.emit_us - result.arrival_us);
          ++collector_results_;
          sink()->OnResult(result);
          merge_.erase(partial.base_seq);
        }
      }
    }
    if (!any) backoff.Pause();
  }
}

void SplitJoinEngine::CollectStats(EngineStats* stats) {
  stats->per_joiner_processed.resize(states_.size());
  for (size_t j = 0; j < states_.size(); ++j) {
    JoinerState& s = *states_[j];
    stats->per_joiner_processed[j] = s.processed;
    stats->visited += s.visited;
    stats->matched += s.matched;
    stats->effectiveness_sum += s.effectiveness_sum;
    stats->join_ops += s.join_ops;
    stats->breakdown.Merge(s.breakdown);
    stats->evicted_tuples += s.evicted;
    stats->peak_buffered_tuples += s.peak_buffered;
  }
  stats->results = collector_results_;
  stats->latency.Merge(collector_latency_);
}

}  // namespace oij
