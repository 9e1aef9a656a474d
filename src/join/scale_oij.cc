#include "join/scale_oij.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <thread>
#include <tuple>

#include "common/clock.h"

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

  if (spec().emit_mode == EmitMode::kEager) {
    PublishProgress(s);
  }
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

void ScaleOijEngine::OnIdle(uint32_t joiner) {
  // Teammate progress may have advanced while our queue is empty.
  DrainPending(joiner, *states_[joiner]);
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

void ScaleOijEngine::DrainPending(uint32_t joiner, JoinerState& s) {
  if (s.schedule == nullptr) s.schedule = table_.Snapshot();
  bool popped = false;
  for (QueryRuntime* q : JoinerQueries(joiner)) {
    if (q == nullptr) continue;  // not yet announced to this joiner
    QuerySlot& qs = s.slots[q->ord];
    if (!options().columnar_batch) {
      while (!qs.pending.empty()) {
        const PendingBase top = qs.pending.top();
        const uint32_t p = PartitionTable::PartitionOf(
            top.tuple.key, options().num_partitions);
        const Timestamp window_end = q->spec.window.end_for(top.tuple.ts);
        if (window_end > TeamMinProgress(s.schedule->teams[p])) break;
        qs.pending.pop();
        popped = true;
        JoinOne(joiner, s, *q, qs, top.tuple, top.arrival_us);
      }
      continue;
    }
    // Columnar path: release the whole team-progress-gated run into the
    // stage first (the gate is checked per pop exactly as the scalar
    // loop does), then join it key-group at a time. Pop order is
    // non-decreasing ts, which the stable key sort preserves within
    // each group — the sweep-merge precondition.
    s.stage.Clear();
    while (!qs.pending.empty()) {
      const PendingBase top = qs.pending.top();
      const uint32_t p = PartitionTable::PartitionOf(
          top.tuple.key, options().num_partitions);
      const Timestamp window_end = q->spec.window.end_for(top.tuple.ts);
      if (window_end > TeamMinProgress(s.schedule->teams[p])) break;
      qs.pending.pop();
      popped = true;
      s.stage.Append(top.tuple, top.arrival_us);
    }
    if (s.stage.empty()) continue;
    if (s.stage.size() < options().columnar_min_run) {
      // Short runs are cheaper scalar: replay in pop order, exactly
      // the sequence the legacy loop would have produced.
      for (size_t i = 0; i < s.stage.size(); ++i) {
        JoinOne(joiner, s, *q, qs, s.stage.TupleAt(i), s.stage.ArrivalAt(i));
      }
      continue;
    }
    s.stage.SortByKey();
    s.stage.ForEachGroup([&](Key key, size_t begin, size_t end) {
      JoinGroupColumnar(joiner, s, *q, qs, key, begin, end);
    });
  }
  if (popped) PublishReadFloor(s);
}

void ScaleOijEngine::JoinOne(uint32_t joiner, JoinerState& s,
                             QueryRuntime& query, QuerySlot& slot,
                             const Tuple& base, int64_t arrival_us) {
  (void)joiner;
  const QuerySpec& qspec = query.spec;
  const Timestamp start = qspec.window.start_for(base.ts);
  const Timestamp end = qspec.window.end_for(base.ts);
  const uint32_t p =
      PartitionTable::PartitionOf(base.key, options().num_partitions);
  const std::vector<uint32_t>& team = s.schedule->teams[p];

  // Once any late probe entered an annex, best-effort queries trade
  // their incremental window states for full main+annex scans (the
  // annex breaks the in-order precondition incremental slides rely on).
  // Exact-policy queries never scan the annex and keep sliding.
  const bool scan_annex =
      qspec.late_policy == LatePolicy::kBestEffortJoin &&
      annex_dirty_.load(std::memory_order_acquire);

  uint64_t op_visited = 0;
  double result_value = 0.0;
  uint64_t result_count = 0;
  double out_sum = std::numeric_limits<double>::quiet_NaN();
  double out_min = std::numeric_limits<double>::quiet_NaN();
  double out_max = std::numeric_limits<double>::quiet_NaN();
  {
    ScopedTimerNs timer(&s.breakdown.match_ns);
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

    if (!scan_annex && options().incremental_agg &&
        IsInvertible(qspec.agg)) {
      IncrementalWindowState& inc = slot.inc_states[base.key];
      const auto slide = inc.Slide(start, end, qspec.agg, scan);
      if (slide.recomputed) {
        ++s.recomputes;
      } else {
        ++s.incremental_slides;
      }
      result_value = inc.agg().Result(qspec.agg);
      result_count = inc.agg().count;
      out_sum = inc.agg().sum;  // min/max not maintained incrementally
    } else if (!scan_annex && options().incremental_agg) {
      // Non-invertible (min/max): Two-Stacks incremental window.
      NonInvertibleWindowState& ni =
          slot.ni_states.try_emplace(base.key, qspec.agg).first->second;
      const auto slide = ni.Slide(start, end, scan);
      if (slide.recomputed) {
        ++s.recomputes;
      } else {
        ++s.incremental_slides;
      }
      result_count = ni.count();
      result_value = result_count == 0
                         ? std::numeric_limits<double>::quiet_NaN()
                         : ni.Result();
      if (result_count > 0) {
        (qspec.agg == AggKind::kMin ? out_min : out_max) = ni.Result();
      }
    } else {
      AggState agg;
      scan(start, end, [&](const Tuple& t) { agg.Add(t.payload); });
      ++s.recomputes;
      result_value = agg.Result(qspec.agg);
      result_count = agg.count;
      out_sum = agg.sum;
      if (agg.count > 0) {
        out_min = agg.min;
        out_max = agg.max;
      }
    }
  }

  s.visited += op_visited;
  s.matched += result_count;
  // Incremental slides can visit fewer tuples than are in the window;
  // effectiveness (Eq. 1) is defined on [0, 1], so clamp.
  s.effectiveness_sum +=
      op_visited == 0 ? 1.0
                      : std::min(1.0, static_cast<double>(result_count) /
                                          static_cast<double>(op_visited));
  ++s.join_ops;

  EmitOne(s, query, base, arrival_us, result_value, result_count, out_sum,
          out_min, out_max);
}

void ScaleOijEngine::JoinGroupColumnar(uint32_t joiner, JoinerState& s,
                                       QueryRuntime& query, QuerySlot& slot,
                                       Key key, size_t begin, size_t end) {
  const QuerySpec& qspec = query.spec;
  const size_t num_bases = end - begin;

  // Engagement gate. The bar is higher when the scalar alternative is
  // the invertible incremental path: that baseline carries window state
  // across drains and only pays the *delta* per base, while the columnar
  // gather re-reads the group's whole union window — which only pays off
  // once the saved per-base index descents outweigh the re-read (~2x the
  // generic group floor, empirically).
  uint32_t min_group = options().columnar_min_group;
  if (options().incremental_agg && IsInvertible(qspec.agg)) {
    min_group = std::max(min_group, 2 * options().columnar_min_group);
  }
  if (num_bases < min_group) {
    // Same replay the NaN fallback below uses.
    for (size_t i = begin; i < end; ++i) {
      JoinOne(joiner, s, query, slot, s.stage.SortedTuple(i),
              s.stage.SortedArrival(i));
    }
    return;
  }

  const uint32_t p =
      PartitionTable::PartitionOf(key, options().num_partitions);
  const std::vector<uint32_t>& team = s.schedule->teams[p];
  const bool scan_annex =
      qspec.late_policy == LatePolicy::kBestEffortJoin &&
      annex_dirty_.load(std::memory_order_acquire);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  ScopedTimerNs timer(&s.breakdown.match_ns);

  // The group's base timestamps, sorted (stable key sort kept pop
  // order), and the union of their windows.
  s.group_ts.resize(num_bases);
  for (size_t i = 0; i < num_bases; ++i) {
    s.group_ts[i] = s.stage.SortedTs(begin + i);
  }
  const Timestamp lo = qspec.window.start_for(s.group_ts[0]);
  const Timestamp hi = qspec.window.end_for(s.group_ts[num_bases - 1]);

  // Stage 1 (gather): one SeekGE per team member covers every base of
  // the group; the scalar path would descend once per (base, member).
  // The epoch guard is only held here — once gathered, the batch is
  // decoupled from index memory.
  s.probes.Clear();
  uint64_t gathered = 0;
  {
    EpochGuard guard(ebr_, s.ebr_slot);
    auto touch = [&](const Tuple& t) { s.cache_probe.Touch(&t); };
    for (uint32_t m : team) {
      gathered +=
          col::GatherRange(states_[m]->index, key, lo, hi, &s.probes, touch);
      if (scan_annex) {
        gathered += col::GatherRange(states_[m]->annex, key, lo, hi,
                                     &s.probes, touch);
      }
    }
  }
  s.probes.EnsureSorted();

  if (!s.probes.all_finite()) {
    // NaN/Inf payloads would diverge under the SIMD min/max lanes;
    // replay this group through the scalar path instead.
    ++s.columnar_fallbacks;
    for (size_t i = begin; i < end; ++i) {
      JoinOne(joiner, s, query, slot, s.stage.SortedTuple(i),
              s.stage.SortedArrival(i));
    }
    return;
  }

  // Stage 2 (sweep merge): per-base window slices from two monotone
  // cursors.
  s.slices.resize(num_bases);
  col::ComputeWindowSlices(s.group_ts.data(), num_bases, qspec.window,
                           s.probes.ts(), s.probes.size(), s.slices.data());

  // Stage 3 (vector aggregate + emit), mirroring the scalar path's
  // result-field contract per configuration.
  const bool incremental = !scan_annex && options().incremental_agg;
  if (incremental && IsInvertible(qspec.agg)) {
    // Invertible fast path: exclusive prefix sums turn every window sum
    // into two loads and a subtract. Scalar emits sum/count only here
    // (min/max are not maintained incrementally), so we do the same.
    s.prefix.resize(s.probes.size() + 1);
    col::PrefixSums(s.probes.payload(), s.probes.size(), s.prefix.data());
    AggState agg;
    for (size_t i = 0; i < num_bases; ++i) {
      const col::BaseSlice sl = s.slices[i];
      agg.sum = s.prefix[sl.hi] - s.prefix[sl.lo];
      agg.count = sl.hi - sl.lo;
      s.matched += agg.count;
      s.effectiveness_sum +=
          gathered == 0 ? 1.0
                        : std::min(1.0, static_cast<double>(agg.count) /
                                            static_cast<double>(gathered));
      ++s.join_ops;
      ++s.incremental_slides;
      EmitOne(s, query, s.stage.SortedTuple(begin + i),
              s.stage.SortedArrival(begin + i), agg.Result(qspec.agg),
              agg.count, agg.sum, nan, nan);
    }
    // Hand the last window's aggregate to the key's incremental state:
    // a later scalar slide must start from *this* window, or its
    // subtract-scan could reach below the published read floor (the
    // floor budgets for at most one window below the next start).
    slot.inc_states[key].Reseed(
        qspec.window.start_for(s.group_ts[num_bases - 1]),
        qspec.window.end_for(s.group_ts[num_bases - 1]), agg);
  } else if (incremental) {
    // Non-invertible (min/max): scalar emits only the requested extreme.
    for (size_t i = 0; i < num_bases; ++i) {
      const col::BaseSlice sl = s.slices[i];
      const col::SliceAgg sa =
          col::AggregateSlice(s.probes.payload() + sl.lo, sl.hi - sl.lo);
      const double extreme = qspec.agg == AggKind::kMin ? sa.min : sa.max;
      const double value = sa.count == 0 ? nan : extreme;
      s.matched += sa.count;
      s.effectiveness_sum +=
          gathered == 0 ? 1.0
                        : std::min(1.0, static_cast<double>(sa.count) /
                                            static_cast<double>(gathered));
      ++s.join_ops;
      ++s.recomputes;
      EmitOne(s, query, s.stage.SortedTuple(begin + i),
              s.stage.SortedArrival(begin + i), value, sa.count, nan,
              qspec.agg == AggKind::kMin && sa.count > 0 ? sa.min : nan,
              qspec.agg == AggKind::kMax && sa.count > 0 ? sa.max : nan);
    }
    // The Two-Stacks FIFO (if armed) no longer matches the last scalar
    // window; force its next slide to recompute.
    auto it = slot.ni_states.find(key);
    if (it != slot.ni_states.end()) it->second.Invalidate();
  } else {
    // Full-scan configuration: scalar emits the complete window stats.
    for (size_t i = 0; i < num_bases; ++i) {
      const col::BaseSlice sl = s.slices[i];
      const col::SliceAgg sa =
          col::AggregateSlice(s.probes.payload() + sl.lo, sl.hi - sl.lo);
      const AggState agg = sa.ToAggState();
      s.matched += agg.count;
      s.effectiveness_sum +=
          gathered == 0 ? 1.0
                        : std::min(1.0, static_cast<double>(agg.count) /
                                            static_cast<double>(gathered));
      ++s.join_ops;
      ++s.recomputes;
      EmitOne(s, query, s.stage.SortedTuple(begin + i),
              s.stage.SortedArrival(begin + i), agg.Result(qspec.agg),
              agg.count, agg.sum, agg.count > 0 ? agg.min : nan,
              agg.count > 0 ? agg.max : nan);
    }
  }

  // The team's indexes were walked once for the whole group, not once
  // per base.
  s.visited += gathered;
  s.columnar_bases += num_bases;
  ++s.columnar_groups;
}

void ScaleOijEngine::EmitOne(JoinerState& s, QueryRuntime& query,
                             const Tuple& base, int64_t arrival_us,
                             double value, uint64_t count, double out_sum,
                             double out_min, double out_max) {
  JoinResult result;
  result.base = base;
  result.aggregate = value;
  result.match_count = count;
  result.sum = out_sum;
  result.min = out_min;
  result.max = out_max;
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
  std::vector<Tuple> bases;
  for (const QuerySlot& qs : s.slots) {
    auto pending = qs.pending;
    while (!pending.empty()) {
      bases.push_back(pending.top().tuple);
      pending.pop();
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
  return true;
}

void ScaleOijEngine::CollectStats(EngineStats* stats) {
  stats->per_joiner_processed.resize(states_.size());
  for (size_t j = 0; j < states_.size(); ++j) {
    JoinerState& s = *states_[j];
    stats->per_joiner_processed[j] = s.processed;
    stats->results += s.join_ops;
    stats->visited += s.visited;
    stats->matched += s.matched;
    stats->effectiveness_sum += s.effectiveness_sum;
    stats->join_ops += s.join_ops;
    stats->breakdown.Merge(s.breakdown);
    stats->latency.Merge(s.latency);
    stats->evicted_tuples += s.evicted;
    stats->peak_buffered_tuples += s.peak_buffered;
    stats->columnar_bases += s.columnar_bases;
    stats->columnar_groups += s.columnar_groups;
    stats->columnar_fallbacks += s.columnar_fallbacks;
  }
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
