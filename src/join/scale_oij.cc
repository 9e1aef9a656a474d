#include "join/scale_oij.h"

#include <algorithm>
#include <thread>

namespace oij {

namespace {
/// The rebalancer config actually run: the user's knobs plus, when
/// placement resolved a multi-node machine, the per-joiner node map
/// that makes replication prefer same-socket targets.
RebalanceConfig TopoAwareRebalance(const RebalanceConfig& base,
                                   const PlacementPlan& plan) {
  RebalanceConfig config = base;
  if (plan.active && plan.num_nodes > 1) {
    config.joiner_node = plan.joiner_node;
  }
  return config;
}
}  // namespace

ScaleOijEngine::ScaleOijEngine(const QuerySpec& spec,
                               const EngineOptions& options, ResultSink* sink)
    : ParallelEngineBase(spec, options, sink),
      ebr_(options.num_joiners + 1),
      table_(options.num_partitions, options.num_joiners),
      router_stats_(options.num_partitions),
      rebalancer_(TopoAwareRebalance(options.rebalance, placement())),
      round_robin_(options.num_partitions, 0) {
  numa_topo_ = placement().active && placement().num_nodes > 1;
  router_schedule_ = table_.Snapshot();
  states_.reserve(options.num_joiners);
  for (uint32_t j = 0; j < options.num_joiners; ++j) {
    const uint32_t slot = ebr_.RegisterThread();
    NodeArena& arena = *arenas_.emplace_back(std::make_unique<NodeArena>());
    if (placement().active) {
      // Every slab this joiner's index grows onto lands on its own
      // socket (mbind, or first touch from the pinned thread).
      arena.SetNumaNode(placement().OsNodeOfJoiner(j));
    }
    states_.push_back(std::make_unique<JoinerState>(
        arena, &ebr_, slot, /*seed=*/0x5ca1e + j));
    states_.back()->schedule = router_schedule_;
    states_.back()->reach = spec.window.pre + 1;
    states_.back()->cache_probe =
        SampledCacheProbe(options.cache_sim, options.cache_sample_period);
  }
}

void ScaleOijEngine::OnAddQuery(uint32_t joiner, QueryRuntime& query) {
  JoinerState& s = *states_[joiner];
  if (query.ord >= s.slots.size()) s.slots.resize(query.ord + 1);
  s.reach = std::max(s.reach, query.spec.window.pre + 1);
}

void ScaleOijEngine::Route(const Event& event) {
  const uint32_t p = PartitionTable::PartitionOf(
      event.tuple.key, options().num_partitions);
  router_stats_.Add(p);

  const auto& team = router_schedule_->teams[p];
  const uint32_t member = team[round_robin_[p]++ % team.size()];
  if (numa_topo_ && team.size() > 1 &&
      placement().NodeOfJoiner(member) != placement().NodeOfJoiner(team[0])) {
    // Driver thread only; admin threads just read.
    SingleWriterAdd(numa_cross_dispatches_);
  }
  EnqueueTo(member, event);

  if (options().dynamic_schedule &&
      ++events_since_rebalance_ >= options().rebalance_interval_events) {
    events_since_rebalance_ = 0;
    RebalanceTelemetry tel;
    auto next =
        rebalancer_.Rebalance(router_schedule_, &router_stats_, &tel);
    if (next != router_schedule_) {
      ++rebalances_;
      if (tel.cross_node_moves > 0) {
        SingleWriterAdd(numa_cross_replications_, tel.cross_node_moves);
      }
      router_schedule_ = next;
      table_.Publish(next);
    }
  }
}

void ScaleOijEngine::PublishProgress(JoinerState& s) {
  // Release: teammates that acquire this value must observe every index
  // insert performed before it.
  s.progress.store(CompleteThrough(s.last_wm, s.max_seen),
                   std::memory_order_release);
}

void ScaleOijEngine::PublishReadFloor(JoinerState& s) {
  Timestamp basis = s.last_wm;
  for (const QuerySlot& qs : s.slots) {
    basis = std::min(basis, qs.pending.OldestTs());
  }
  if (basis == kMinTimestamp) return;  // nothing observed yet
  const Timestamp reach = s.reach;
  const Timestamp floor =
      basis > kMinTimestamp + reach ? basis - reach : kMinTimestamp + 1;
  // Monotone by construction, but clamp defensively.
  if (floor > s.read_floor.load(std::memory_order_relaxed)) {
    s.read_floor.store(floor, std::memory_order_release);
  }
}

Timestamp ScaleOijEngine::TeamMinProgress(
    const std::vector<uint32_t>& team) const {
  Timestamp min_p = kMaxTimestamp;
  for (uint32_t m : team) {
    min_p = std::min(min_p,
                     states_[m]->progress.load(std::memory_order_acquire));
  }
  return min_p;
}

Timestamp ScaleOijEngine::TeamCompleteThrough(
    const std::vector<uint32_t>& team) const {
  const Timestamp p = TeamMinProgress(team);
  // Watermark progress is already a completeness bound. Eager progress is
  // what the team has observed: probes up to the lateness bound behind
  // it may still arrive without being late.
  return spec().emit_mode == EmitMode::kWatermark
             ? p
             : p - spec().lateness_us - 1;
}

Timestamp ScaleOijEngine::GlobalMinReadFloor() const {
  Timestamp min_f = kMaxTimestamp;
  for (const auto& s : states_) {
    min_f =
        std::min(min_f, s->read_floor.load(std::memory_order_acquire));
  }
  return min_f;
}

void ScaleOijEngine::OnTuple(uint32_t joiner, const Event& event) {
  JoinerState& s = *states_[joiner];
  ++s.processed;
  if (event.tuple.ts > s.max_seen) s.max_seen = event.tuple.ts;

  if (event.stream == StreamId::kProbe) {
    if (event.late) {
      // Lateness-violating probe admitted for the best-effort queries:
      // quarantined in the annex so exact queries never scan it.
      s.annex.Insert(event.tuple);
      annex_dirty_.store(true, std::memory_order_release);
    } else {
      s.index.Insert(event.tuple);
    }
    const size_t size = s.index.size() + s.annex.size();
    if (size > s.peak_buffered) s.peak_buffered = size;
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

void ScaleOijEngine::OnBatchEnd(uint32_t joiner) {
  JoinerState& s = *states_[joiner];
  // Eager progress moves with every observed tuple; watermark progress
  // only at punctuations, which OnWatermark publishes.
  if (spec().emit_mode == EmitMode::kEager) PublishProgress(s);
  DrainPending(joiner, s);
}

void ScaleOijEngine::OnWatermark(uint32_t joiner, Timestamp watermark) {
  JoinerState& s = *states_[joiner];
  if (watermark > s.last_wm) s.last_wm = watermark;
  // Publish before draining: gating is on progress, so publishing first
  // keeps the team free of circular waits; eviction safety is carried by
  // read_floor, which still reflects the undrained pending tuples.
  PublishProgress(s);
  PublishReadFloor(s);
  DrainPending(joiner, s);
  Evict(s);
}

bool ScaleOijEngine::OnIdle(uint32_t joiner) {
  // Teammate progress may have advanced while our queue is empty.
  return DrainPending(joiner, *states_[joiner]);
}

bool ScaleOijEngine::HavePending(const JoinerState& s) const {
  for (const QuerySlot& qs : s.slots) {
    if (!qs.pending.empty()) return true;
  }
  return false;
}

void ScaleOijEngine::OnFlush(uint32_t joiner) {
  JoinerState& s = *states_[joiner];
  // All joiners have published kMaxTimestamp progress by the time they
  // process their own flush; spin until ours drains. A teammate that died
  // before publishing would wedge this wait, so it also honors the stop
  // token.
  while (HavePending(s) && !stop_requested()) {
    DrainPending(joiner, s);
    if (HavePending(s)) std::this_thread::yield();
  }
  PublishReadFloor(s);
}

bool ScaleOijEngine::DrainPending(uint32_t joiner, JoinerState& s) {
  // Teams only grow, so the newest schedule is always safe, and it covers
  // every member the router sent a key to before any event this joiner
  // has processed: eager progress moves with every tuple, so a view
  // refreshed only at punctuations could finalize a base without the
  // members a team grew by since.
  if (s.schedule->version != table_.version()) s.schedule = table_.Snapshot();
  bool popped = false;
  for (QueryRuntime* q : JoinerQueries(joiner)) {
    if (q == nullptr) continue;  // not yet announced to this joiner
    const QuerySpec& qspec = q->spec;
    QuerySlot& slot = s.slots[q->ord];
    // Set by each group's gather; the group's emit reads the same window.
    col::KeyWindow* window = nullptr;
    popped |= s.driver.Drain(
        slot.pending, qspec.window, options().columnar_min_run, s,
        [&](Key key) {
          const uint32_t p =
              PartitionTable::PartitionOf(key, options().num_partitions);
          return TeamMinProgress(s.schedule->teams[p]);
        },
        [&](const Tuple& base, int64_t arrival_us) {
          JoinOne(s, *q, slot, base, arrival_us);
        },
        [&](Key key, Timestamp lo, Timestamp hi, col::ProbeColumns* probes) {
          return GatherKey(s, qspec, slot, key, lo, hi, probes, &window);
        },
        [&](const ColumnarGroup& g) { EmitGroup(s, *q, g, window); });
  }
  if (popped) PublishReadFloor(s);
  return popped;
}

bool ScaleOijEngine::ScanAnnex(const QuerySpec& qspec) const {
  // Once any late probe entered an annex, best-effort queries trade
  // their resident windows for whole main+annex gathers (a late probe
  // can land below a carried end). Exact-policy queries never scan the
  // annex and keep their windows.
  return qspec.late_policy == LatePolicy::kBestEffortJoin &&
         annex_dirty_.load(std::memory_order_acquire);
}

Gathered ScaleOijEngine::GatherKey(JoinerState& s, const QuerySpec& qspec,
                                   QuerySlot& slot, Key key, Timestamp lo,
                                   Timestamp hi, col::ProbeColumns* scratch,
                                   col::KeyWindow** window) {
  const uint32_t p =
      PartitionTable::PartitionOf(key, options().num_partitions);
  const std::vector<uint32_t>& team = s.schedule->teams[p];
  const bool scan_annex = ScanAnnex(qspec);
  Gathered g;
  // One SeekGE per team member. The epoch guard is held only here: once
  // gathered, the columns are decoupled from index memory.
  auto gather = [&](Timestamp from, col::ProbeColumns* out) {
    if (from > hi) return;
    auto touch = [&](const Tuple& t) { s.cache_probe.Touch(&t); };
    EpochGuard guard(ebr_, s.ebr_slot);
    for (uint32_t m : team) {
      g.visited +=
          col::GatherRange(states_[m]->index, key, from, hi, out, touch);
      if (scan_annex) {
        g.visited +=
            col::GatherRange(states_[m]->annex, key, from, hi, out, touch);
      }
    }
  };
  *window = nullptr;
  if (options().incremental_agg && !scan_annex) {
    col::KeyWindow& w = slot.windows[key];
    gather(w.Begin(lo), w.delta());
    // Only probes no future tuple can add to stay resident, or a later
    // delta would never pick up a probe that arrived after it was
    // carried; the rest of [lo, hi] is read for this finalize only.
    if (w.Extend(std::min(hi, TeamCompleteThrough(team)))) {
      *window = &w;
      g.probes = w.span();
      return g;
    }
  }
  // The recompute arm, a dirty annex, or a non-finite payload (which
  // emptied the window): read [lo, hi] whole.
  gather(lo, scratch);
  scratch->EnsureSorted();
  g.probes = scratch->span();
  return g;
}

void ScaleOijEngine::JoinOne(JoinerState& s, QueryRuntime& query,
                             QuerySlot& slot, const Tuple& base,
                             int64_t arrival_us) {
  const QuerySpec& qspec = query.spec;
  col::KeyWindow* window = nullptr;
  Gathered g;
  col::BaseSlice slice;
  {
    ScopedTimerNs timer(&s.breakdown.lookup_ns);
    s.probes.Clear();
    const Timestamp start = qspec.window.start_for(base.ts);
    const Timestamp end = qspec.window.end_for(base.ts);
    g = GatherKey(s, qspec, slot, base.key, start, end, &s.probes, &window);
    // A resident window may reach past `end`: binary-search the slice.
    const Timestamp* ts = g.probes.ts;
    const Timestamp* lo = std::lower_bound(ts, ts + g.probes.size, start);
    slice.lo = static_cast<uint32_t>(lo - ts);
    slice.hi = static_cast<uint32_t>(
        std::upper_bound(lo, ts + g.probes.size, end) - ts);
  }
  s.visited += g.visited;
  ScopedTimerNs timer(&s.breakdown.match_ns);
  AggState agg;
  if (window != nullptr) {
    window->Aggregate(qspec.agg, &slice, 1, &agg, &s.deque);
  } else if (g.probes.finite) {
    agg = col::AggregateSlice(g.probes.payload + slice.lo,
                              slice.hi - slice.lo)
              .ToAggState();
  } else {
    // The SIMD min/max lanes would reorder NaN propagation.
    for (uint32_t i = slice.lo; i < slice.hi; ++i) agg.Add(g.probes.payload[i]);
  }
  s.CountJoinOp(agg.count, g.visited);
  EmitResult(query, base, arrival_us, agg.Result(qspec.agg), agg.count,
             s.latency);
}

void ScaleOijEngine::EmitGroup(JoinerState& s, QueryRuntime& query,
                               const ColumnarGroup& g,
                               const col::KeyWindow* window) {
  const AggKind kind = query.spec.agg;
  s.aggs.resize(g.size);
  if (window != nullptr) {
    window->Aggregate(kind, g.slices, g.size, s.aggs.data(), &s.deque);
  } else {
    for (size_t i = 0; i < g.size; ++i) {
      s.aggs[i] = g.Aggregate(i).ToAggState();
    }
  }
  for (size_t i = 0; i < g.size; ++i) {
    const AggState& agg = s.aggs[i];
    s.CountJoinOp(agg.count, g.gathered);
    EmitResult(query, g.Base(i), g.Arrival(i), agg.Result(kind), agg.count,
               s.latency);
  }
}

void ScaleOijEngine::Evict(JoinerState& s) {
  // No base of this joiner reads below its own floor, so a resident
  // window ending there restarts at its next use. One ending a further
  // window reach below has not been read for a whole window: dropping it
  // keeps idle keys, removed queries and abandoned best-effort windows
  // from holding memory. (An eager window whose horizon trails its
  // window start carries nothing and always ends just below the floor;
  // dropping it at once would regrow its columns every punctuation.)
  const Timestamp floor = s.read_floor.load(std::memory_order_relaxed);
  if (floor > kMinTimestamp + s.reach) {
    const Timestamp idle_below = floor - s.reach;
    for (QuerySlot& slot : s.slots) {
      std::erase_if(slot.windows, [idle_below](const auto& kv) {
        return kv.second.end() < idle_below;
      });
    }
  }
  const Timestamp bound = GlobalMinReadFloor();
  if (bound == kMinTimestamp) return;  // nothing published yet
  s.evicted += s.index.EvictBefore(bound);
  s.evicted += s.annex.EvictBefore(bound);
}

bool ScaleOijEngine::CollectSnapshotState(uint32_t joiner,
                                          std::vector<StreamEvent>* out) {
  // Consistent cut on the joiner thread (kSnapshot event). The index
  // walk is the arena-aware part: every node lives on this joiner's
  // contiguous slabs, so the traversal is cache-dense.
  // Probes first, then unfinalized bases; the resident key windows are
  // *derived* state and are regathered when the replayed tuples re-enter
  // through normal ingest.
  // The annex (late best-effort probes) is intentionally *not*
  // snapshotted: replayed tuples re-enter under the restored watermark
  // gate, and late data is only ever best-effort. Pending bases are
  // merged across query slots — replay fans a base back out to every
  // active query. (A base already finalized for a narrow-window
  // query but still pending for a wider one is re-joined for both on a
  // snapshot-based recovery; exactly-once per query across divergent
  // windows needs full-log replay, i.e. snapshots off.)
  JoinerState& s = *states_[joiner];
  out->reserve(out->size() + s.index.size());
  s.index.ForEachTuple([out](const Tuple& t) {
    StreamEvent ev;
    ev.stream = StreamId::kProbe;
    ev.tuple = t;
    out->push_back(ev);
  });
  AppendPendingBases(s.slots, out);
  return true;
}

void ScaleOijEngine::CollectStats(EngineStats* stats) {
  for (const auto& s : states_) s->MergeInto(stats);
  stats->rebalances = rebalances_;
  stats->final_schedule_version = router_schedule_->version;
}

void ScaleOijEngine::SampleGauges(MemStats* mem, NumaStats* numa) const {
  // One pass over the per-arena counters fills both the engine-wide
  // aggregate and the per-node split (each arena is wholly on its
  // joiner's node, so grouping is by the placement map, not a slab walk).
  const PlacementPlan& plan = placement();
  mem->pooled = true;
  numa->per_node_arena_bytes.assign(plan.num_nodes, 0);
  numa->per_node_arena_live_nodes.assign(plan.num_nodes, 0);
  for (size_t j = 0; j < arenas_.size(); ++j) {
    const NodeArena::Stats a = arenas_[j]->snapshot();
    mem->arena_reserved_bytes += a.reserved_bytes;
    mem->arena_live_nodes += a.live_nodes;
    mem->arena_allocations += a.allocations;
    mem->arena_slab_recycles += a.slab_recycles;
    mem->arena_oversize_allocs += a.oversize_allocs;
    const uint32_t ord =
        std::min(plan.NodeOfJoiner(static_cast<uint32_t>(j)),
                 plan.num_nodes - 1);
    numa->per_node_arena_bytes[ord] += a.reserved_bytes;
    numa->per_node_arena_live_nodes[ord] += a.live_nodes;
  }
  mem->ebr_retired_backlog = ebr_.PendingCountAll();
  numa->cross_replications =
      numa_cross_replications_.load(std::memory_order_relaxed);
  numa->cross_dispatches =
      numa_cross_dispatches_.load(std::memory_order_relaxed);
}

}  // namespace oij
