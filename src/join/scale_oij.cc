#include "join/scale_oij.h"

#include <algorithm>
#include <thread>

#include "common/clock.h"

namespace oij {

namespace {
/// Whether a key's carried Subtract-on-Evict window is worth sliding. A
/// window of fewer probes is rescanned instead: a rescan descends the
/// index once, a slide twice (subtract and add ranges). Two-Stacks
/// evicts in memory and always slides.
constexpr uint64_t kMinSlideProbes = 32;
bool WorthSliding(const IncrementalWindowState& inc) {
  return inc.valid() && inc.agg().count >= kMinSlideProbes;
}

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
    states_.back()->reach =
        spec.window.pre + (spec.window.pre + spec.window.fol) + 1;
    states_.back()->cache_probe =
        SampledCacheProbe(options.cache_sim, options.cache_sample_period);
  }
}

void ScaleOijEngine::OnAddQuery(uint32_t joiner, QueryRuntime& query) {
  JoinerState& s = *states_[joiner];
  if (query.ord >= s.slots.size()) s.slots.resize(query.ord + 1);
  const Timestamp reach = query.spec.window.pre +
                          (query.spec.window.pre + query.spec.window.fol) +
                          1;
  if (reach > s.reach) s.reach = reach;
}

void ScaleOijEngine::Route(const Event& event) {
  const uint32_t p = PartitionTable::PartitionOf(
      event.tuple.key, options().num_partitions);
  router_stats_.Add(p);

  const auto& team = router_schedule_->teams[p];
  const uint32_t member = team[round_robin_[p]++ % team.size()];
  if (numa_topo_ && team.size() > 1 &&
      placement().NodeOfJoiner(member) != placement().NodeOfJoiner(team[0])) {
    // Single-writer bump (driver thread only; admin threads just read).
    numa_cross_dispatches_.store(
        numa_cross_dispatches_.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
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
        numa_cross_replications_.store(
            numa_cross_replications_.load(std::memory_order_relaxed) +
                tel.cross_node_moves,
            std::memory_order_relaxed);
      }
      router_schedule_ = next;
      table_.Publish(next);
    }
  }
}

Timestamp ScaleOijEngine::LocalProgress(const JoinerState& s) const {
  // Highest event time through which this joiner's queue is complete *and*
  // processed. A future tuple may still carry ts == watermark, so in
  // kWatermark mode the guarantee is strictly below the punctuation.
  if (spec().emit_mode == EmitMode::kWatermark) {
    if (s.last_wm == kMinTimestamp || s.last_wm == kMaxTimestamp) {
      return s.last_wm;
    }
    return s.last_wm - 1;
  }
  // Eager mode: everything this joiner has observed, plus what the last
  // punctuation proves was emitted globally (wm = max emitted − l).
  Timestamp p = s.max_seen;
  if (s.last_wm != kMinTimestamp) {
    const Timestamp global = s.last_wm == kMaxTimestamp
                                 ? kMaxTimestamp
                                 : s.last_wm + spec().lateness_us;
    p = std::max(p, global);
  }
  return p;
}

void ScaleOijEngine::PublishProgress(JoinerState& s) {
  // Release: teammates that acquire this value must observe every index
  // insert performed before it.
  s.progress.store(LocalProgress(s), std::memory_order_release);
}

void ScaleOijEngine::PublishReadFloor(JoinerState& s) {
  Timestamp basis = s.last_wm;
  for (const QuerySlot& qs : s.slots) {
    if (!qs.pending.empty()) {
      basis = std::min(basis, qs.pending.top().tuple.ts);
    }
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
      s.slots[q->ord].pending.push(
          PendingBase{event.tuple, event.arrival_us});
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
  // Teams only grow, so refreshing to the newest schedule is always safe
  // and guarantees the view covers every member routed to so far.
  s.schedule = table_.Snapshot();
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
  if (s.schedule == nullptr) s.schedule = table_.Snapshot();
  bool popped = false;
  for (QueryRuntime* q : JoinerQueries(joiner)) {
    if (q == nullptr) continue;  // not yet announced to this joiner
    const QuerySpec& qspec = q->spec;
    QuerySlot& slot = s.slots[q->ord];
    // Loaded once per group by its gather; the emit must agree with it.
    bool scan_annex = false;
    popped |= s.driver.Drain(
        slot.pending, qspec.window, options().columnar_min_run, s,
        [&](const Tuple& t) {
          const uint32_t p =
              PartitionTable::PartitionOf(t.key, options().num_partitions);
          return qspec.window.end_for(t.ts) <=
                 TeamMinProgress(s.schedule->teams[p]);
        },
        // A group re-reads its whole union window, where a sliding key's
        // per-base path reads only each base's delta: against a sliding
        // key a group must share its gather among twice as many bases.
        [&](Key key) {
          const auto it = slot.inc_states.find(key);
          const bool slides = options().incremental_agg &&
                              IsInvertible(qspec.agg) && !ScanAnnex(qspec) &&
                              it != slot.inc_states.end() &&
                              WorthSliding(it->second);
          return slides ? 2 * FinalizeDriver::kMinGroup
                        : FinalizeDriver::kMinGroup;
        },
        [&](const Tuple& base, int64_t arrival_us) {
          JoinOne(s, *q, slot, base, arrival_us);
        },
        // One SeekGE per team member covers every base of the group; the
        // per-base path would descend once per (base, member). The epoch
        // guard is held only here: once gathered, the batch is decoupled
        // from index memory.
        [&](Key key, Timestamp lo, Timestamp hi, col::ProbeColumns* probes) {
          scan_annex = ScanAnnex(qspec);
          const uint32_t p =
              PartitionTable::PartitionOf(key, options().num_partitions);
          auto touch = [&](const Tuple& t) { s.cache_probe.Touch(&t); };
          uint64_t gathered = 0;
          EpochGuard guard(ebr_, s.ebr_slot);
          for (uint32_t m : s.schedule->teams[p]) {
            gathered +=
                col::GatherRange(states_[m]->index, key, lo, hi, probes, touch);
            if (scan_annex) {
              gathered += col::GatherRange(states_[m]->annex, key, lo, hi,
                                           probes, touch);
            }
          }
          return gathered;
        },
        [&](const ColumnarGroup& g) { EmitGroup(s, *q, slot, g, scan_annex); });
  }
  if (popped) PublishReadFloor(s);
  return popped;
}

bool ScaleOijEngine::ScanAnnex(const QuerySpec& qspec) const {
  // Once any late probe entered an annex, best-effort queries trade
  // their incremental window states for full main+annex scans (the
  // annex breaks the in-order precondition incremental slides rely on).
  // Exact-policy queries never scan the annex and keep sliding.
  return qspec.late_policy == LatePolicy::kBestEffortJoin &&
         annex_dirty_.load(std::memory_order_acquire);
}

void ScaleOijEngine::JoinOne(JoinerState& s, QueryRuntime& query,
                             QuerySlot& slot, const Tuple& base,
                             int64_t arrival_us) {
  const QuerySpec& qspec = query.spec;
  const Timestamp start = qspec.window.start_for(base.ts);
  const Timestamp end = qspec.window.end_for(base.ts);
  const uint32_t p =
      PartitionTable::PartitionOf(base.key, options().num_partitions);
  const std::vector<uint32_t>& team = s.schedule->teams[p];
  const bool scan_annex = ScanAnnex(qspec);
  const bool incremental = !scan_annex && options().incremental_agg;

  uint64_t op_visited = 0;
  AggState agg;
  {
    ScopedTimerNs timer(&s.breakdown.lookup_ns);
    EpochGuard guard(ebr_, s.ebr_slot);

    auto scan = [&](Timestamp lo, Timestamp hi, auto&& per_tuple) {
      for (uint32_t m : team) {
        op_visited += states_[m]->index.ForEachInRange(
            base.key, lo, hi, [&](const Tuple& t) {
              s.cache_probe.Touch(&t);
              per_tuple(t);
            });
        if (scan_annex) {
          op_visited += states_[m]->annex.ForEachInRange(
              base.key, lo, hi, [&](const Tuple& t) {
                s.cache_probe.Touch(&t);
                per_tuple(t);
              });
        }
      }
    };

    // A running window state may only hold probes no future tuple can
    // add to, or a later slide would never pick up a probe that arrived
    // after it was carried. It carries [start, carried_end]; the rest of
    // the window is scanned fresh for this base and not stored.
    Timestamp fresh_lo = start;
    if (incremental) {
      const Timestamp carried_end = std::min(end, TeamCompleteThrough(team));
      if (carried_end >= start) {
        if (IsInvertible(qspec.agg)) {
          // Subtract-on-Evict: only sum/count are maintained.
          IncrementalWindowState& inc = slot.inc_states[base.key];
          if (!WorthSliding(inc)) inc.Invalidate();
          inc.Slide(start, carried_end, qspec.agg, scan);
          agg = inc.agg();
        } else {
          // Two-Stacks: only the requested extreme is maintained.
          NonInvertibleWindowState& ni =
              slot.ni_states.try_emplace(base.key, qspec.agg).first->second;
          ni.Slide(start, carried_end, scan);
          agg.count = ni.count();
          (qspec.agg == AggKind::kMin ? agg.min : agg.max) = ni.Result();
        }
        fresh_lo = carried_end + 1;
      }
    }
    if (fresh_lo <= end) {
      scan(fresh_lo, end, [&](const Tuple& t) { agg.Add(t.payload); });
    }
  }

  s.visited += op_visited;
  s.CountJoinOp(agg.count, op_visited);
  ScopedTimerNs timer(&s.breakdown.match_ns);
  EmitOne(s, query, base, arrival_us, agg.Result(qspec.agg), agg.count);
}

void ScaleOijEngine::EmitGroup(JoinerState& s, QueryRuntime& query,
                               QuerySlot& slot, const ColumnarGroup& g,
                               bool scan_annex) {
  const QuerySpec& qspec = query.spec;
  const bool incremental = !scan_annex && options().incremental_agg;
  if (incremental && IsInvertible(qspec.agg)) {
    // Exclusive prefix sums turn every window sum into two loads and a
    // subtract.
    s.prefix.resize(g.probes->size() + 1);
    col::PrefixSums(g.probes->payload(), g.probes->size(), s.prefix.data());
    AggState agg;
    for (size_t i = 0; i < g.size; ++i) {
      agg.sum = s.prefix[g.slices[i].hi] - s.prefix[g.slices[i].lo];
      agg.count = g.slices[i].hi - g.slices[i].lo;
      s.CountJoinOp(agg.count, g.gathered);
      EmitOne(s, query, g.Base(i), g.Arrival(i), agg.Result(qspec.agg),
              agg.count);
    }
    // Hand the last window's aggregate to the key's incremental state:
    // a later per-base slide must start from *this* window, or its
    // subtract-scan could reach below the published read floor (the
    // floor budgets for at most one window below the next start). An
    // eager window may still be missing probes, so it is never carried:
    // the next slide recomputes instead.
    IncrementalWindowState& inc = slot.inc_states[g.key];
    if (spec().emit_mode == EmitMode::kEager) {
      inc.Invalidate();
    } else {
      const Timestamp last = g.Base(g.size - 1).ts;
      inc.Reseed(qspec.window.start_for(last), qspec.window.end_for(last),
                 agg);
    }
    return;
  }
  for (size_t i = 0; i < g.size; ++i) {
    const AggState agg = g.Aggregate(i).ToAggState();
    s.CountJoinOp(agg.count, g.gathered);
    EmitOne(s, query, g.Base(i), g.Arrival(i), agg.Result(qspec.agg),
            agg.count);
  }
  if (incremental) {
    // Non-invertible (min/max): the Two-Stacks FIFO (if armed) no longer
    // matches the last per-base window; force its next slide to
    // recompute.
    auto it = slot.ni_states.find(g.key);
    if (it != slot.ni_states.end()) it->second.Invalidate();
  }
}

void ScaleOijEngine::EmitOne(JoinerState& s, QueryRuntime& query,
                             const Tuple& base, int64_t arrival_us,
                             double value, uint64_t count) {
  JoinResult result;
  result.base = base;
  result.aggregate = value;
  result.match_count = count;
  result.arrival_us = arrival_us;
  result.emit_us = MonotonicNowUs();
  s.latency.Record(result.emit_us - arrival_us);
  EmitResult(query, result);
}

void ScaleOijEngine::Evict(JoinerState& s) {
  const Timestamp bound = GlobalMinReadFloor();
  if (bound == kMinTimestamp || bound == kMaxTimestamp) {
    // Nothing published yet, or flush already drained: evict everything
    // only in the latter case.
    if (bound == kMaxTimestamp) {
      s.evicted += s.index.EvictBefore(bound);
      s.evicted += s.annex.EvictBefore(bound);
    }
    return;
  }
  s.evicted += s.index.EvictBefore(bound);
  s.evicted += s.annex.EvictBefore(bound);
}

bool ScaleOijEngine::CollectSnapshotState(uint32_t joiner,
                                          std::vector<StreamEvent>* out) {
  // Consistent cut on the joiner thread (kSnapshot event). The index
  // walk is the arena-aware part: every node lives on this joiner's
  // contiguous slabs, so the traversal is cache-dense.
  // Probes first, then unfinalized bases; the per-key incremental
  // window states are *derived* state and are rebuilt (or recomputed
  // lazily) when the replayed tuples re-enter through normal ingest.
  // The annex (late best-effort probes) is intentionally *not*
  // snapshotted: replayed tuples re-enter under the restored watermark
  // gate, and late data is only ever best-effort. Pending bases are
  // deduplicated across query slots — replay fans a base back out to
  // every active query. (A base already finalized for a narrow-window
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

  stats->mem.pooled = true;
  // One pass over the per-arena counters fills both the engine-wide
  // aggregate and the per-node split (each arena is wholly on its
  // joiner's node, so grouping is by the placement map — no slab walk).
  const PlacementPlan& plan = placement();
  stats->numa_node_arena_bytes.assign(plan.num_nodes, 0);
  stats->numa_node_arena_live_nodes.assign(plan.num_nodes, 0);
  for (size_t j = 0; j < arenas_.size(); ++j) {
    const NodeArena::Stats a = arenas_[j]->snapshot();
    stats->mem.arena_reserved_bytes += a.reserved_bytes;
    stats->mem.arena_live_nodes += a.live_nodes;
    stats->mem.arena_allocations += a.allocations;
    stats->mem.arena_slab_recycles += a.slab_recycles;
    stats->mem.arena_oversize_allocs += a.oversize_allocs;
    const uint32_t ord =
        std::min(plan.NodeOfJoiner(static_cast<uint32_t>(j)),
                 plan.num_nodes - 1);
    stats->numa_node_arena_bytes[ord] += a.reserved_bytes;
    stats->numa_node_arena_live_nodes[ord] += a.live_nodes;
  }
  stats->mem.ebr_retired_backlog = ebr_.PendingCountAll();
  stats->numa_cross_replications =
      numa_cross_replications_.load(std::memory_order_relaxed);
  stats->numa_cross_dispatches =
      numa_cross_dispatches_.load(std::memory_order_relaxed);
}

void ScaleOijEngine::SampleMem(WatchdogSample* sample) const {
  // Watchdog/serving threads: only the relaxed-atomic gauges are touched.
  const PlacementPlan& plan = placement();
  sample->per_node_arena_bytes.assign(plan.num_nodes, 0);
  sample->per_node_arena_live_nodes.assign(plan.num_nodes, 0);
  for (size_t j = 0; j < arenas_.size(); ++j) {
    const NodeArena::Stats a = arenas_[j]->snapshot();
    sample->arena_bytes += a.reserved_bytes;
    sample->arena_live_nodes += a.live_nodes;
    sample->arena_slab_recycles += a.slab_recycles;
    const uint32_t ord =
        std::min(plan.NodeOfJoiner(static_cast<uint32_t>(j)),
                 plan.num_nodes - 1);
    sample->per_node_arena_bytes[ord] += a.reserved_bytes;
    sample->per_node_arena_live_nodes[ord] += a.live_nodes;
  }
  sample->ebr_retired_backlog = ebr_.PendingCountAll();
  sample->numa_cross_replications =
      numa_cross_replications_.load(std::memory_order_relaxed);
  sample->numa_cross_dispatches =
      numa_cross_dispatches_.load(std::memory_order_relaxed);
}

}  // namespace oij
