#include "join/key_oij.h"

#include <algorithm>

#include "common/hash.h"

namespace oij {

KeyOijEngine::KeyOijEngine(const QuerySpec& spec,
                           const EngineOptions& options, ResultSink* sink)
    : ParallelEngineBase(spec, options, sink) {
  states_.reserve(options.num_joiners);
  for (uint32_t j = 0; j < options.num_joiners; ++j) {
    states_.push_back(std::make_unique<JoinerState>());
    states_.back()->reach = spec.window.pre + spec.window.fol;
    states_.back()->cache_probe =
        SampledCacheProbe(options.cache_sim, options.cache_sample_period);
  }
}

void KeyOijEngine::OnAddQuery(uint32_t joiner, QueryRuntime& query) {
  JoinerState& s = *states_[joiner];
  if (query.ord >= s.slots.size()) s.slots.resize(query.ord + 1);
  const Timestamp reach = query.spec.window.pre + query.spec.window.fol;
  if (reach > s.reach) s.reach = reach;
}

void KeyOijEngine::Route(const Event& event) {
  // Static binding of key hash to joiner: the defining property (and
  // weakness: at most u joiners can be busy) of Key-OIJ.
  const uint32_t joiner =
      RangePartition(Mix64(event.tuple.key), num_joiners());
  EnqueueTo(joiner, event);
}

void KeyOijEngine::OnTuple(uint32_t joiner, const Event& event) {
  JoinerState& s = *states_[joiner];
  ++s.processed;
  if (event.tuple.ts > s.max_seen) s.max_seen = event.tuple.ts;

  if (event.stream == StreamId::kProbe) {
    (event.late ? s.annex : s.buffers)[event.tuple.key].push_back(
        event.tuple);
    ++s.buffered;
    if (s.buffered > s.peak_buffered) s.peak_buffered = s.buffered;
  } else {
    for (QueryRuntime* q : JoinerQueries(joiner)) {
      if (q == nullptr || !JoinerAccepting(joiner, q->ord)) continue;
      if (event.late &&
          q->spec.late_policy != LatePolicy::kBestEffortJoin) {
        continue;
      }
      s.slots[q->ord].pending.Push(event.tuple, event.arrival_us);
    }
  }
}

void KeyOijEngine::OnBatchEnd(uint32_t joiner) {
  DrainPending(joiner, *states_[joiner]);
}

void KeyOijEngine::OnWatermark(uint32_t joiner, Timestamp watermark) {
  JoinerState& s = *states_[joiner];
  if (watermark > s.last_wm) s.last_wm = watermark;
  DrainPending(joiner, s);
  Evict(s);
}

template <typename Fn>
void KeyOijEngine::ScanKey(JoinerState& s, const QuerySpec& qspec, Key key,
                           Fn&& fn) {
  auto scan = [&](const std::unordered_map<Key, std::vector<Tuple>>& buckets) {
    auto it = buckets.find(key);
    if (it == buckets.end()) return;
    for (const Tuple& r : it->second) {
      s.cache_probe.Touch(&r);
      fn(r);
    }
  };
  scan(s.buffers);
  if (qspec.late_policy == LatePolicy::kBestEffortJoin && !s.annex.empty()) {
    scan(s.annex);
  }
}

void KeyOijEngine::DrainPending(uint32_t joiner, JoinerState& s) {
  const Timestamp threshold = CompleteThrough(s.last_wm, s.max_seen);
  for (QueryRuntime* q : JoinerQueries(joiner)) {
    if (q == nullptr) continue;  // not yet announced to this joiner
    const QuerySpec& qspec = q->spec;
    s.driver.Drain(
        s.slots[q->ord].pending, qspec.window, options().columnar_min_run, s,
        [threshold](Key) { return threshold; },
        [&](const Tuple& base, int64_t arrival_us) {
          JoinOne(s, *q, base, arrival_us);
        },
        // One scan of the key's buffer per group replaces one full scan
        // per base. Every buffered tuple counts as visited, but only the
        // group's union window is transposed: the slices read no more.
        [&](Key key, Timestamp lo, Timestamp hi, col::ProbeColumns* probes) {
          Gathered g;
          ScanKey(s, qspec, key, [&](const Tuple& r) {
            ++g.visited;
            if (r.ts >= lo && r.ts <= hi) probes->Append(r.ts, r.payload);
          });
          probes->EnsureSorted();
          g.probes = probes->span();
          return g;
        },
        [&](const ColumnarGroup& g) {
          for (size_t i = 0; i < g.size; ++i) {
            const AggState agg = g.Aggregate(i).ToAggState();
            s.CountJoinOp(agg.count, g.gathered);
            EmitResult(*q, g.Base(i), g.Arrival(i), agg.Result(qspec.agg),
                       agg.count, s.latency);
          }
        });
  }
}

void KeyOijEngine::JoinOne(JoinerState& s, QueryRuntime& query,
                           const Tuple& base, int64_t arrival_us) {
  const QuerySpec& qspec = query.spec;
  const Timestamp start = qspec.window.start_for(base.ts);
  const Timestamp end = qspec.window.end_for(base.ts);

  // Lookup: the buffer is unsorted, so every stored tuple of the key
  // must be visited and filtered.
  s.scratch_matches.clear();
  uint64_t op_visited = 0;
  {
    ScopedTimerNs timer(&s.breakdown.lookup_ns);
    ScanKey(s, qspec, base.key, [&](const Tuple& r) {
      ++op_visited;
      if (r.ts >= start && r.ts <= end) s.scratch_matches.push_back(&r);
    });
  }

  // Match: aggregate the in-window tuples.
  AggState agg;
  {
    ScopedTimerNs timer(&s.breakdown.match_ns);
    for (const Tuple* r : s.scratch_matches) {
      agg.Add(r->payload);
    }
  }

  s.visited += op_visited;
  s.CountJoinOp(s.scratch_matches.size(), op_visited);
  EmitResult(query, base, arrival_us, agg.Result(qspec.agg), agg.count,
             s.latency);
}

void KeyOijEngine::Evict(JoinerState& s) {
  if (s.last_wm == kMinTimestamp) return;
  // No future base tuple can have ts < last_wm (lateness bound), and
  // pending ones have ts + FOL > last_wm, so no window of any query
  // (reach = max PRE+FOL over all of them) reaches below:
  const Timestamp bound = s.last_wm - s.reach;
  auto evict_buckets =
      [&](std::unordered_map<Key, std::vector<Tuple>>& buckets) {
        for (auto& [key, buffer] : buckets) {
          auto keep_end = std::remove_if(
              buffer.begin(), buffer.end(),
              [bound](const Tuple& t) { return t.ts < bound; });
          const size_t removed =
              static_cast<size_t>(buffer.end() - keep_end);
          if (removed > 0) {
            buffer.erase(keep_end, buffer.end());
            s.evicted += removed;
            s.buffered -= removed;
          }
        }
      };
  evict_buckets(s.buffers);
  evict_buckets(s.annex);
}

bool KeyOijEngine::CollectSnapshotState(uint32_t joiner,
                                        std::vector<StreamEvent>* out) {
  // Consistent cut: runs on the joiner thread at its kSnapshot event, so
  // everything routed before the barrier is incorporated. Probes first
  // (the per-key buffers), then unfinalized bases — re-Pushing them in
  // this order through normal ingest rebuilds the state exactly.
  // The late-probe annex is intentionally not snapshotted (late data is
  // best-effort only); pending bases are merged across query slots —
  // replay fans them back out to every active query.
  const JoinerState& s = *states_[joiner];
  out->reserve(out->size() + s.buffered);
  for (const auto& [key, buffer] : s.buffers) {
    for (const Tuple& t : buffer) {
      StreamEvent ev;
      ev.stream = StreamId::kProbe;
      ev.tuple = t;
      out->push_back(ev);
    }
  }
  AppendPendingBases(s.slots, out);
  return true;
}

void KeyOijEngine::CollectStats(EngineStats* stats) {
  for (const auto& s : states_) s->MergeInto(stats);
}

}  // namespace oij
