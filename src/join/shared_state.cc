#include "join/shared_state.h"

#include "common/clock.h"

namespace oij {

SharedStateEngine::SharedStateEngine(const QuerySpec& spec,
                                     const EngineOptions& options,
                                     ResultSink* sink)
    : ParallelEngineBase(spec, options, sink) {
  states_.reserve(options.num_joiners);
  for (uint32_t j = 0; j < options.num_joiners; ++j) {
    states_.push_back(std::make_unique<WorkerState>());
    states_.back()->cache_probe =
        SampledCacheProbe(options.cache_sim, options.cache_sample_period);
  }
}

void SharedStateEngine::Route(const Event& event) {
  // Workers share all state, so routing is a plain round-robin spray.
  EnqueueTo(rr_++ % num_joiners(), event);
}

void SharedStateEngine::OnTuple(uint32_t joiner, const Event& event) {
  WorkerState& s = *states_[joiner];
  ++s.processed;
  if (event.stream == StreamId::kProbe) {
    // The bottleneck by design: every insert takes the exclusive lock.
    std::unique_lock<std::shared_mutex> lock(table_mu_);
    table_[event.tuple.key].emplace(event.tuple.ts, event.tuple.payload);
    ++buffered_;
    if (buffered_ > peak_buffered_) peak_buffered_ = buffered_;
  } else {
    JoinOne(s, event.tuple, event.arrival_us);
  }
}

void SharedStateEngine::JoinOne(WorkerState& s, const Tuple& base,
                                int64_t arrival_us) {
  const Timestamp start = spec().window.start_for(base.ts);
  const Timestamp end = spec().window.end_for(base.ts);

  AggState agg;
  uint64_t op_visited = 0;
  {
    // Read-optimized path: ordered range retrieval under a shared lock.
    ScopedTimerNs timer(&s.breakdown.match_ns);
    std::shared_lock<std::shared_mutex> lock(table_mu_);
    auto it = table_.find(base.key);
    if (it != table_.end()) {
      for (auto e = it->second.lower_bound(start);
           e != it->second.end() && e->first <= end; ++e) {
        ++op_visited;
        s.cache_probe.Touch(&e->second);
        agg.Add(e->second);
      }
    }
  }

  s.visited += op_visited;
  s.matched += agg.count;
  s.effectiveness_sum += op_visited == 0
                             ? 1.0
                             : static_cast<double>(agg.count) /
                                   static_cast<double>(op_visited);
  ++s.join_ops;

  JoinResult result;
  result.base = base;
  result.aggregate = agg.Result(spec().agg);
  result.match_count = agg.count;
  result.arrival_us = arrival_us;
  result.emit_us = MonotonicNowUs();
  s.latency.Record(result.emit_us - arrival_us);
  sink()->OnResult(result);
}

void SharedStateEngine::OnWatermark(uint32_t joiner, Timestamp watermark) {
  // Only worker 0 performs maintenance so the sweep is not duplicated.
  if (joiner != 0 || watermark == kMinTimestamp) return;
  const Timestamp bound =
      watermark == kMaxTimestamp
          ? kMaxTimestamp
          : watermark - spec().window.pre - spec().window.fol;
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  for (auto& [key, mm] : table_) {
    auto upto = mm.lower_bound(bound);
    for (auto it = mm.begin(); it != upto;) {
      it = mm.erase(it);
      ++evicted_;
      --buffered_;
    }
  }
}

void SharedStateEngine::CollectStats(EngineStats* stats) {
  stats->per_joiner_processed.resize(states_.size());
  for (size_t j = 0; j < states_.size(); ++j) {
    WorkerState& s = *states_[j];
    stats->per_joiner_processed[j] = s.processed;
    stats->results += s.join_ops;
    stats->visited += s.visited;
    stats->matched += s.matched;
    stats->effectiveness_sum += s.effectiveness_sum;
    stats->join_ops += s.join_ops;
    stats->breakdown.Merge(s.breakdown);
    stats->latency.Merge(s.latency);
  }
  stats->evicted_tuples = evicted_;
  stats->peak_buffered_tuples = peak_buffered_;
}

}  // namespace oij
