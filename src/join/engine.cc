#include "join/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/clock.h"
#include "common/thread_util.h"
#include "wal/wal_reader.h"

namespace oij {

Status JoinEngine::Recover() {
  Status s = BeginRecovery();
  if (!s.ok()) return s;
  while (RecoveryStep(4096)) {
  }
  return Status::OK();
}

std::string_view OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kDropNewest:
      return "drop_newest";
    case OverloadPolicy::kShedOldest:
      return "shed_oldest";
  }
  return "unknown";
}

Status EngineOptions::Validate() const {
  if (num_joiners == 0) {
    return Status::InvalidArgument("num_joiners must be positive");
  }
  if (queue_capacity < 2) {
    return Status::InvalidArgument("queue_capacity must be >= 2");
  }
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (batch_flush_us < 0) {
    return Status::InvalidArgument("batch_flush_us must be non-negative");
  }
  if (columnar_min_run < 2) {
    return Status::InvalidArgument(
        "columnar_min_run must be >= 2 (a group of one base is always "
        "cheaper scalar)");
  }
  if (finish_timeout_us <= 0) {
    return Status::InvalidArgument("finish_timeout_us must be positive");
  }
  if (!numa.explicit_cpus.empty()) {
    if (numa.explicit_cpus.size() != num_joiners) {
      return Status::InvalidArgument(
          "numa.explicit_cpus must have one entry per joiner (" +
          std::to_string(num_joiners) + "), got " +
          std::to_string(numa.explicit_cpus.size()));
    }
    for (int cpu : numa.explicit_cpus) {
      if (cpu < -1) {
        return Status::InvalidArgument(
            "numa.explicit_cpus entries must be a cpu id or -1 (unpinned)");
      }
    }
  }
  if (enable_watchdog) {
    if (watchdog.interval_ms <= 0) {
      return Status::InvalidArgument("watchdog.interval_ms must be positive");
    }
    if (watchdog.stall_intervals == 0 ||
        watchdog.watermark_freeze_intervals == 0) {
      return Status::InvalidArgument(
          "watchdog escalation thresholds must be positive");
    }
  }
  return durability.Validate();
}

double EngineStats::ActualUnbalancedness() const {
  if (per_joiner_processed.empty()) return 0.0;
  double mean = 0.0;
  for (uint64_t c : per_joiner_processed) mean += static_cast<double>(c);
  mean /= static_cast<double>(per_joiner_processed.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (uint64_t c : per_joiner_processed) {
    const double d = static_cast<double>(c) - mean;
    var += d * d;
  }
  var /= static_cast<double>(per_joiner_processed.size());
  return std::sqrt(var) / mean;
}

ParallelEngineBase::ParallelEngineBase(const QuerySpec& spec,
                                       const EngineOptions& options,
                                       ResultSink* sink)
    : spec_(spec), options_(options), sink_(sink) {
  // Resolve NUMA placement before anything else so subclass constructors
  // (which run after this body) can bind per-joiner state — arenas — to
  // their joiner's node.
  placement_ =
      PlanPlacement(Topology::Detect(), options_.num_joiners, options_.numa);

  queues_.reserve(options_.num_joiners);
  for (uint32_t j = 0; j < options_.num_joiners; ++j) {
    queues_.push_back(
        std::make_unique<SpscQueue<Event>>(options_.queue_capacity));
  }
  spill_.resize(options_.num_joiners);
  control_lost_ =
      std::make_unique<std::atomic<uint64_t>[]>(options_.num_joiners);

  // Staging deeper than the ring only adds latency, never throughput.
  batch_size_ = std::min(options_.batch_size, options_.queue_capacity);
  staged_.resize(options_.num_joiners);
  for (auto& stage : staged_) stage.reserve(batch_size_);
}

ParallelEngineBase::~ParallelEngineBase() {
  // Engines must be Finish()ed; tolerate abandonment by draining anyway.
  if (started_ && !finished_) Finish();
}

Status ParallelEngineBase::Start() {
  if (started_) return Status::FailedPrecondition("engine already started");
  Status s = options_.Validate();
  if (!s.ok()) return s;
  s = spec_.Validate();
  if (!s.ok()) return s;

  run_origin_ns_ = MonotonicNowNs();
  busy_ns_.assign(options_.num_joiners, 0);
  if (options_.collect_cpu_util) {
    util_trackers_.clear();
    util_trackers_.reserve(options_.num_joiners);
    for (uint32_t j = 0; j < options_.num_joiners; ++j) {
      util_trackers_.emplace_back(run_origin_ns_,
                                  options_.cpu_util_interval_ns);
    }
  }

  late_gate_.Configure(spec_.late_policy, options_.late_sink);

  // Catalog entry 0 is always the primary query; every joiner starts with
  // it in view, so the single-query path is just the one-entry case.
  queries_.clear();
  queries_.emplace_back();
  queries_[0].ord = 0;
  queries_[0].id = "main";
  queries_[0].spec = spec_;
  multi_mode_ = false;
  RecomputeLatePolicies();
  joiner_views_.assign(options_.num_joiners, JoinerView{});
  for (auto& view : joiner_views_) {
    view.queries.push_back(&queries_[0]);
    view.accepting.push_back(true);
  }

  consumed_ = std::make_unique<PaddedCounter[]>(options_.num_joiners);
  stop_.store(false, std::memory_order_release);
  exited_.store(0, std::memory_order_release);

  if (options_.durability.enabled()) {
    wal_ = std::make_unique<WalManager>(options_.durability,
                                        options_.num_joiners,
                                        options_.fault_injector);
    s = wal_->Open();
    if (!s.ok()) {
      wal_.reset();
      return s;
    }
  }

  started_ = true;
  threads_.reserve(options_.num_joiners);
  for (uint32_t j = 0; j < options_.num_joiners; ++j) {
    threads_.emplace_back([this, j] { JoinerMain(j); });
  }
  StartAuxiliary();
  if (options_.enable_watchdog) StartWatchdog();
  return Status::OK();
}

void ParallelEngineBase::ArmWalIngest() {
  ingest_begun_ = true;
  if (wal_->HasExistingState() && !recovery_done_) {
    // The caller started ingesting without recovering: the on-disk
    // state belongs to a previous incarnation and mixing it with this
    // run's log would corrupt a later recovery. Fresh-start semantics.
    wal_->DiscardExistingState();
    wal_warnings_.push_back(
        "wal_dir held state from a previous run but ingest began without "
        "recovery; discarded it (recover before the first Push to keep "
        "it)");
  }
}

void ParallelEngineBase::Push(const StreamEvent& event, int64_t arrival_us) {
  pushed_.fetch_add(1, std::memory_order_relaxed);
  if (stop_requested()) {
    // Aborted run: everything after the abort is shed at the door.
    SingleWriterAdd(overload_dropped_);
    return;
  }
  if (wal_ != nullptr && !replaying_.load(std::memory_order_relaxed)) {
    // Log the *raw* arrival before the lateness gate: replaying the same
    // arrivals against the same watermark sequence reproduces every gate
    // decision, so drops/side-channel diversions recover identically.
    if (!ingest_begun_) ArmWalIngest();
    wal_->AppendTuple(event);
    wal_->CommitGroup(arrival_us, /*watermark_barrier=*/false);
    wal_->PollSnapshotCompletion();
  }
  bool late = false;
  if (!multi_mode_) {
    if (!late_gate_.Admit(event)) return;
  } else {
    // Per-query late policies: "late" is global (every query shares the
    // primary's lateness bound), but each query disposes of the tuple by
    // its own policy. The tuple is routed at all only when a best-effort
    // query wants it, flagged so drop/side-channel queries never see it.
    const Timestamp wm = late_gate_.last_watermark();
    if (wm != kMinTimestamp && event.tuple.ts < wm) {
      for (QueryRuntime& q : queries_) {
        if (!q.active) continue;
        ++q.late.tuples;
        if (event.stream == StreamId::kBase) {
          ++q.late.base;
        } else {
          ++q.late.probe;
        }
        switch (q.spec.late_policy) {
          case LatePolicy::kBestEffortJoin:
            ++q.late.joined;
            break;
          case LatePolicy::kDropAndCount:
            ++q.late.dropped;
            break;
          case LatePolicy::kSideChannel:
            ++q.late.side_channel;
            break;
        }
      }
      if (any_side_channel_ && options_.late_sink != nullptr) {
        options_.late_sink->OnLateTuple(event, wm);
      }
      if (!any_best_effort_) return;
      late = true;
    }
  }

  Event ev;
  ev.kind = Event::Kind::kTuple;
  ev.stream = event.stream;
  ev.tuple = event.tuple;
  ev.arrival_us = arrival_us;
  ev.late = late;
  ev.seq = seq_++;
  Route(ev);

  // Time-bound flush: reuse the caller's arrival stamp as "now" so the
  // bound costs no clock read on the hot path.
  if (staged_total_ > 0 && options_.batch_flush_us > 0 &&
      arrival_us - earliest_staged_us_ >= options_.batch_flush_us) {
    FlushAllStaged(/*deadline_ns=*/-1);
  }
}

void ParallelEngineBase::SignalWatermark(Timestamp watermark) {
  const uint64_t attempt = watermark_attempts_++;
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->WatermarkFrozen(attempt)) {
    return;  // injected frozen source: punctuation silently swallowed
  }
  late_gate_.ObserveWatermark(watermark);
  watermarks_signaled_.fetch_add(1, std::memory_order_relaxed);

  const bool wal_live =
      wal_ != nullptr && !replaying_.load(std::memory_order_relaxed);
  if (wal_live) {
    if (!ingest_begun_) ArmWalIngest();
    wal_->AppendWatermark(watermark);
    // The per-batch durability point: everything this watermark can
    // finalize reaches disk *before* the joiners see the punctuation,
    // so no externalized result ever depends on an unlogged input.
    wal_->CommitGroup(MonotonicNowUs(), /*watermark_barrier=*/true);
  }

  Event ev;
  ev.kind = Event::Kind::kWatermark;
  ev.watermark = watermark;
  ev.seq = seq_++;
  for (uint32_t j = 0; j < options_.num_joiners; ++j) {
    if (!EnqueueControl(j, ev, -1)) {
      // A watermark lost here (stop token raised while the ring stayed
      // full) would silently freeze this joiner's eviction and
      // finalization — account it so the run is marked non-pristine.
      SingleWriterAdd(control_lost_[j]);
    }
  }

  if (wal_live) {
    if (wal_->SnapshotDue()) {
      // Snapshot barrier: rotate the log, then ask every joiner (via an
      // ordinary control event, so FIFO order makes the cut consistent)
      // to persist its state for this epoch.
      const uint64_t epoch = wal_->BeginSnapshot(
          late_gate_.last_watermark(), SerializeCatalog());
      Event snap;
      snap.kind = Event::Kind::kSnapshot;
      snap.watermark = static_cast<Timestamp>(epoch);
      snap.seq = seq_++;
      for (uint32_t j = 0; j < options_.num_joiners; ++j) {
        if (!EnqueueControl(j, snap, -1)) {
          SingleWriterAdd(control_lost_[j]);
          wal_->MarkSnapshotFailed(epoch);
        }
      }
    }
    wal_->PollSnapshotCompletion();
  }
}

void ParallelEngineBase::FlushPending() { FlushAllStaged(/*deadline_ns=*/-1); }

Status ParallelEngineBase::AddQuery(std::string_view id,
                                    const QuerySpec& spec) {
  if (!started_ || finished_) {
    return Status::FailedPrecondition(
        "AddQuery needs a started, unfinished engine");
  }
  if (!SupportsMultiQuery()) {
    return Status::FailedPrecondition(
        std::string(name()) + " does not support a standing-query catalog");
  }
  if (Status s = QueryCatalog::ValidateId(id); !s.ok()) return s;
  if (Status s = spec.Validate(); !s.ok()) return s;
  if (spec.lateness_us != spec_.lateness_us) {
    return Status::InvalidArgument(
        "standing queries must share the primary query's lateness bound (" +
        std::to_string(spec_.lateness_us) + " us)");
  }
  if (spec.emit_mode != spec_.emit_mode) {
    return Status::InvalidArgument(
        "standing queries must share the primary query's emit mode (" +
        std::string(EmitModeName(spec_.emit_mode)) + ")");
  }
  for (const QueryRuntime& q : queries_) {
    if (q.active && q.id == id) {
      return Status::InvalidArgument("query id '" + std::string(id) +
                                     "' already exists");
    }
  }
  return ApplyCatalogAdd(id, spec);
}

Status ParallelEngineBase::ApplyCatalogAdd(std::string_view id,
                                           const QuerySpec& spec) {
  const bool wal_live =
      wal_ != nullptr && !replaying_.load(std::memory_order_relaxed);
  if (wal_live) {
    if (!ingest_begun_) ArmWalIngest();
    wal_->AppendAddQuery(id, spec);
    // Catalog changes are rare and load-bearing: always sync them like a
    // watermark barrier so a recovered run serves the same catalog.
    wal_->CommitGroup(MonotonicNowUs(), /*watermark_barrier=*/true);
  }
  if (!multi_mode_) {
    multi_mode_ = true;
    // The gate counted the primary query's violations until now; hand
    // its tallies over so per-query counters stay continuous.
    queries_[0].late = late_gate_.stats();
  }
  queries_.emplace_back();
  QueryRuntime& q = queries_.back();
  q.ord = static_cast<uint32_t>(queries_.size() - 1);
  q.id = std::string(id);
  q.spec = spec;
  RecomputeLatePolicies();

  Event ev;
  ev.kind = Event::Kind::kAddQuery;
  ev.query = &q;
  ev.seq = seq_++;
  for (uint32_t j = 0; j < options_.num_joiners; ++j) {
    if (!EnqueueControl(j, ev, -1)) SingleWriterAdd(control_lost_[j]);
  }
  return Status::OK();
}

Status ParallelEngineBase::RemoveQuery(std::string_view id) {
  if (!started_ || finished_) {
    return Status::FailedPrecondition(
        "RemoveQuery needs a started, unfinished engine");
  }
  if (!SupportsMultiQuery()) {
    return Status::FailedPrecondition(
        std::string(name()) + " does not support a standing-query catalog");
  }
  for (QueryRuntime& q : queries_) {
    if (!q.active || q.id != id) continue;
    if (q.ord == 0) {
      return Status::InvalidArgument("the primary query cannot be removed");
    }
    const bool wal_live =
        wal_ != nullptr && !replaying_.load(std::memory_order_relaxed);
    if (wal_live) {
      if (!ingest_begun_) ArmWalIngest();
      wal_->AppendRemoveQuery(id);
      wal_->CommitGroup(MonotonicNowUs(), /*watermark_barrier=*/true);
    }
    ApplyCatalogRemove(q);
    return Status::OK();
  }
  return Status::NotFound("no active query with id '" + std::string(id) +
                          "'");
}

void ParallelEngineBase::ApplyCatalogRemove(QueryRuntime& query) {
  query.active = false;
  RecomputeLatePolicies();
  Event ev;
  ev.kind = Event::Kind::kRemoveQuery;
  ev.query = &query;
  ev.seq = seq_++;
  for (uint32_t j = 0; j < options_.num_joiners; ++j) {
    if (!EnqueueControl(j, ev, -1)) SingleWriterAdd(control_lost_[j]);
  }
}

void ParallelEngineBase::RecomputeLatePolicies() {
  any_best_effort_ = false;
  any_side_channel_ = false;
  for (const QueryRuntime& q : queries_) {
    if (!q.active) continue;
    if (q.spec.late_policy == LatePolicy::kBestEffortJoin) {
      any_best_effort_ = true;
    }
    if (q.spec.late_policy == LatePolicy::kSideChannel) {
      any_side_channel_ = true;
    }
  }
}

std::string ParallelEngineBase::SerializeCatalog() const {
  QueryCatalog catalog;
  for (const QueryRuntime& q : queries_) {
    catalog.Append(q.id, q.spec, q.active);
  }
  return catalog.Serialize();
}

void ParallelEngineBase::ApplyManifestCatalog(const QueryCatalog& catalog) {
  for (const QueryEntry& e : catalog.entries()) {
    if (e.ord == 0) continue;  // the primary comes from our own spec
    if (!SupportsMultiQuery()) {
      wal_warnings_.push_back(
          "snapshot manifest carries standing queries but this engine "
          "cannot serve them; catalog dropped");
      return;
    }
    ApplyCatalogAdd(e.id, e.spec);
    if (!e.active) ApplyCatalogRemove(queries_.back());
  }
}

std::vector<QueryStatsRow> ParallelEngineBase::QuerySnapshot() const {
  std::vector<QueryStatsRow> rows;
  rows.reserve(queries_.size());
  for (const QueryRuntime& q : queries_) {
    QueryStatsRow row;
    row.ord = q.ord;
    row.id = q.id;
    row.spec = q.spec;
    row.active = q.active;
    row.results = q.results.load(std::memory_order_relaxed);
    row.late = (q.ord == 0 && !multi_mode_) ? late_gate_.stats() : q.late;
    rows.push_back(std::move(row));
  }
  return rows;
}

void ParallelEngineBase::EnqueueTo(uint32_t joiner, const Event& event) {
  if (event.kind != Event::Kind::kTuple) {
    if (!EnqueueControl(joiner, event, -1)) {
      SingleWriterAdd(control_lost_[joiner]);
    }
    return;
  }
  auto& stage = staged_[joiner];
  if (staged_total_ == 0) earliest_staged_us_ = event.arrival_us;
  stage.push_back(event);
  ++staged_total_;
  if (stage.size() >= batch_size_) FlushStaged(joiner, /*deadline_ns=*/-1);
}

void ParallelEngineBase::FlushStaged(uint32_t joiner, int64_t deadline_ns) {
  auto& stage = staged_[joiner];
  if (stage.empty()) return;
  staged_total_ -= stage.size();
  PushTupleBatch(joiner, stage.data(), stage.size(), deadline_ns);
  stage.clear();
}

void ParallelEngineBase::FlushAllStaged(int64_t deadline_ns) {
  if (staged_total_ == 0) return;
  // Per-socket batches: the plan's flush order groups joiners by node,
  // so one socket's rings are filled back-to-back before the router's
  // writes move to the next socket's cache lines. Identity order when
  // placement is inactive; either way every joiner is flushed, and
  // per-queue FIFO (the only ordering contract) is untouched.
  for (uint32_t j : placement_.flush_order) {
    FlushStaged(j, deadline_ns);
  }
}

void ParallelEngineBase::PushTupleBatch(uint32_t joiner, const Event* events,
                                        size_t n, int64_t deadline_ns) {
  SpscQueue<Event>& queue = *queues_[joiner];
  if (options_.overload_policy != OverloadPolicy::kShedOldest) {
    // kBlock waits (stop-token aware) for the consumer: lossless
    // backpressure. kDropNewest drops at once. Finish bounds either wait
    // with its deadline; `deadline_ns` is -1 otherwise.
    const bool block = options_.overload_policy == OverloadPolicy::kBlock;
    size_t i = 0;
    while (i < n) {
      i += queue.PushBatch(events + i, n - i);
      if (i >= n) return;
      const bool waited_out = deadline_ns >= 0
                                  ? MonotonicNowNs() >= deadline_ns
                                  : !block;
      if (stop_.load(std::memory_order_acquire) || waited_out) {
        SingleWriterAdd(overload_dropped_, n - i);
        return;
      }
      std::this_thread::yield();
    }
    return;
  }
  // kShedOldest, FIFO with the spill: ring-push directly only while the
  // spill is empty, then stage the remainder behind it and shed the
  // oldest.
  auto& spill = spill_[joiner];
  size_t i = 0;
  if (spill.empty()) {
    while (i < n) {
      const size_t pushed = queue.PushBatch(events + i, n - i);
      if (pushed == 0) break;
      i += pushed;
    }
  }
  for (; i < n; ++i) spill.push_back(events[i]);
  while (!spill.empty() && queue.TryPush(spill.front())) {
    spill.pop_front();
  }
  ShedSpillOverflow(joiner);
}

void ParallelEngineBase::ShedSpillOverflow(uint32_t joiner) {
  auto& spill = spill_[joiner];
  const size_t cap = options_.shed_spill_capacity > 0
                         ? options_.shed_spill_capacity
                         : options_.queue_capacity;
  while (spill.size() > cap) {
    // Shed the oldest staged *tuple*; watermarks/flushes are load-bearing
    // and must survive.
    auto it = std::find_if(spill.begin(), spill.end(), [](const Event& e) {
      return e.kind == Event::Kind::kTuple;
    });
    if (it == spill.end()) break;
    spill.erase(it);
    SingleWriterAdd(overload_shed_);
    SingleWriterAdd(overload_dropped_);
  }
}

bool ParallelEngineBase::DrainSpill(uint32_t joiner, int64_t deadline_ns) {
  auto& spill = spill_[joiner];
  while (!spill.empty()) {
    const PushResult r =
        queues_[joiner]->PushBounded(spill.front(), deadline_ns, &stop_);
    if (r != PushResult::kOk) return false;
    spill.pop_front();
  }
  return true;
}

bool ParallelEngineBase::EnqueueControl(uint32_t joiner, const Event& event,
                                        int64_t deadline_ns) {
  // A control event must never pass the tuples it gates: flush this
  // joiner's staged batch first so per-queue FIFO order is preserved.
  FlushStaged(joiner, deadline_ns);
  if (options_.overload_policy == OverloadPolicy::kShedOldest &&
      !spill_[joiner].empty()) {
    // Keep FIFO order with staged tuples: route the control event through
    // the spill too. It is never shed (ShedSpillOverflow skips
    // non-tuples).
    spill_[joiner].push_back(event);
    return DrainSpill(joiner, deadline_ns);
  }
  return queues_[joiner]->PushBounded(event, deadline_ns, &stop_) ==
         PushResult::kOk;
}

EngineStats ParallelEngineBase::Finish() {
  EngineStats stats;
  if (!started_ || finished_) return stats;
  finished_ = true;

  const int64_t deadline =
      MonotonicNowNs() + options_.finish_timeout_us * 1000;

  Event flush;
  flush.kind = Event::Kind::kFlush;
  flush.watermark = kMaxTimestamp;
  bool flush_ok = true;
  for (uint32_t j = 0; j < options_.num_joiners; ++j) {
    if (!EnqueueControl(j, flush, deadline)) {
      flush_ok = false;
      SingleWriterAdd(control_lost_[j]);
    }
  }
  if (!flush_ok) {
    RecordUnhealthy(Status::DeadlineExceeded(
        "Finish could not deliver flush before its deadline"));
    stop_.store(true, std::memory_order_release);
  }

  // Joiners exit on flush (or on the stop token). Bound the wait so a
  // wedged joiner cannot hang Finish: on expiry, raise the stop token —
  // every blocking path under engine control polls it.
  while (exited_.load(std::memory_order_acquire) < options_.num_joiners) {
    if (MonotonicNowNs() >= deadline) {
      RecordUnhealthy(Status::DeadlineExceeded(
          "joiners did not exit before the finish deadline"));
      stop_.store(true, std::memory_order_release);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (auto& t : threads_) t.join();
  threads_.clear();
  watchdog_.Stop();
  StopAuxiliary();

  if (wal_ != nullptr) {
    // Joiners have exited, so a snapshot in flight is either complete or
    // failed — settle it, then make every logged byte durable.
    wal_->PollSnapshotCompletion();
    wal_->Flush(/*sync=*/true);
    stats.wal = wal_->StatsSnapshot();
  }

  stats.input_tuples = pushed_.load(std::memory_order_relaxed);
  stats.overload_dropped = overload_dropped_.load(std::memory_order_relaxed);
  stats.overload_shed = overload_shed_.load(std::memory_order_relaxed);
  for (uint32_t j = 0; j < options_.num_joiners; ++j) {
    stats.per_joiner_control_lost.push_back(
        control_lost_[j].load(std::memory_order_relaxed));
    stats.control_lost += stats.per_joiner_control_lost.back();
  }
  stats.late = multi_mode_ ? queries_[0].late : late_gate_.stats();
  stats.warnings = watchdog_.TakeWarnings();
  stats.warnings.insert(stats.warnings.end(), wal_warnings_.begin(),
                        wal_warnings_.end());
  if (stats.control_lost > 0) {
    stats.warnings.push_back(
        "lost " + std::to_string(stats.control_lost) +
        " control event(s) (watermark/flush) to the stop token or a "
        "deadline; downstream eviction/finalization may be stale");
  }
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    stats.health = health_;
  }
  FillGauges(&stats.mem, &stats.numa);
  CollectStats(&stats);
  for (int64_t b : busy_ns_) stats.breakdown.busy_ns += b;
  if (options_.collect_cpu_util) {
    const int64_t now = MonotonicNowNs();
    for (auto& tracker : util_trackers_) {
      stats.utilization.push_back(tracker.UtilizationSeries(now));
    }
  }
  return stats;
}

void ParallelEngineBase::JoinerMain(uint32_t joiner) {
  SetCurrentThreadName("joiner-" + std::to_string(joiner));
  // Pin per the placement plan; pinning to a CPU the host lacks (fake
  // topologies, shrunken cpusets) is a silent no-op inside TryPin.
  if (placement_.active && placement_.joiner_cpu[joiner] >= 0) {
    TryPinCurrentThreadTo(placement_.joiner_cpu[joiner]);
  }

  const bool track_util = options_.collect_cpu_util;
  auto add_busy = [&](int64_t start, int64_t end) {
    busy_ns_[joiner] += end - start;
    if (track_util) util_trackers_[joiner].AddBusy(start, end);
  };
  const bool inject = options_.fault_injector != nullptr;
  uint64_t events_seen = 0;
  Backoff backoff;
  // Drain in batches: one shared head update (PopBatch) and one consumed
  // counter bump per batch rather than per event.
  const size_t drain_batch = std::max<size_t>(batch_size_, 64);
  std::vector<Event> batch(drain_batch);
  BurstFinalizer burst(drain_batch, queues_[joiner]->capacity());
  auto finalize = [&] {
    OnBatchEnd(joiner);
    burst.Finalized();
  };
  bool flushed = false;
  bool aborted = false;
  while (!flushed && !aborted && !stop_requested()) {
    size_t got = queues_[joiner]->PopBatch(batch.data(), drain_batch);
    if (got == 0) {
      const int64_t idle_start = MonotonicNowNs();
      if (OnIdle(joiner)) add_busy(idle_start, MonotonicNowNs());
      backoff.Pause();
      continue;
    }
    backoff.Reset();

    const int64_t busy_start = MonotonicNowNs();
    // Drain a burst: everything currently queued plus the batch in hand.
    do {
      uint64_t processed = 0;
      for (size_t i = 0; i < got; ++i) {
        if (inject && !InjectFaults(joiner, events_seen)) {
          aborted = true;
          break;
        }
        ++events_seen;
        ++processed;
        const Event& ev = batch[i];
        switch (ev.kind) {
          case Event::Kind::kTuple:
            OnTuple(joiner, ev);
            break;
          case Event::Kind::kWatermark:
            OnWatermark(joiner, ev.watermark);
            break;
          case Event::Kind::kFlush:
            OnWatermark(joiner, kMaxTimestamp);
            OnFlush(joiner);
            flushed = true;
            break;
          case Event::Kind::kSnapshot:
            finalize();
            HandleSnapshotEvent(joiner,
                                static_cast<uint64_t>(ev.watermark));
            break;
          case Event::Kind::kAddQuery: {
            finalize();
            JoinerView& view = joiner_views_[joiner];
            QueryRuntime* q = ev.query;
            if (view.queries.size() <= q->ord) {
              view.queries.resize(q->ord + 1, nullptr);
              view.accepting.resize(q->ord + 1, false);
            }
            view.queries[q->ord] = q;
            view.accepting[q->ord] = true;
            OnAddQuery(joiner, *q);
            break;
          }
          case Event::Kind::kRemoveQuery:
            finalize();
            joiner_views_[joiner].accepting[ev.query->ord] = false;
            OnRemoveQuery(joiner, ev.query->ord);
            break;
        }
        if (flushed) break;
      }
      if (!flushed && !aborted && burst.AfterPop(got)) OnBatchEnd(joiner);
      consumed_[joiner].value.fetch_add(processed,
                                        std::memory_order_relaxed);
      if (flushed || aborted || stop_requested()) break;
      got = queues_[joiner]->PopBatch(batch.data(), drain_batch);
    } while (got > 0);
    if (!flushed && !aborted && burst.owed()) finalize();

    add_busy(busy_start, MonotonicNowNs());
  }
  exited_.fetch_add(1, std::memory_order_release);
}

bool ParallelEngineBase::InjectFaults(uint32_t joiner, uint64_t events_seen) {
  const FaultInjector* f = options_.fault_injector;
  if (f->SlowsJoiner(joiner)) {
    std::this_thread::sleep_for(std::chrono::microseconds(f->slow_delay_us));
  }
  if (f->StallsJoiner(joiner, events_seen)) {
    // Park like a thread wedged in a downstream call: releases only when
    // the watchdog or Finish raises the stop token.
    while (!stop_requested()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  }
  return true;
}

Status ParallelEngineBase::Health() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_;
}

WatchdogSample ParallelEngineBase::SampleProgress() const {
  WatchdogSample sample;
  if (consumed_ == nullptr) return sample;  // not started yet
  const uint32_t n = options_.num_joiners;
  sample.queue_depths.reserve(n);
  sample.consumed.reserve(n);
  for (uint32_t j = 0; j < n; ++j) {
    sample.queue_depths.push_back(queues_[j]->SizeApprox());
    sample.consumed.push_back(
        consumed_[j].value.load(std::memory_order_relaxed));
  }
  sample.pushed = pushed_.load(std::memory_order_relaxed);
  sample.watermarks = watermarks_signaled_.load(std::memory_order_relaxed);
  sample.overload_dropped = overload_dropped_.load(std::memory_order_relaxed);
  sample.overload_shed = overload_shed_.load(std::memory_order_relaxed);
  for (uint32_t j = 0; j < n; ++j) {
    sample.control_lost += control_lost_[j].load(std::memory_order_relaxed);
  }
  FillGauges(&sample.mem, &sample.numa);
  return sample;
}

void ParallelEngineBase::FillGauges(MemStats* mem, NumaStats* numa) const {
  numa->active = placement_.active;
  numa->nodes = placement_.num_nodes;
  if (placement_.active) {
    numa->pin_cpus = placement_.joiner_cpu;
    numa->joiner_node = placement_.joiner_node;
  }
  SampleGauges(mem, numa);
}

Timestamp ParallelEngineBase::CompleteThrough(Timestamp last_wm,
                                              Timestamp max_seen) const {
  if (spec_.emit_mode == EmitMode::kWatermark) {
    if (last_wm == kMinTimestamp || last_wm == kMaxTimestamp) return last_wm;
    return last_wm - 1;
  }
  if (last_wm == kMinTimestamp) return max_seen;
  return std::max(max_seen, last_wm == kMaxTimestamp
                                ? kMaxTimestamp
                                : last_wm + spec_.lateness_us);
}

void ParallelEngineBase::StartWatchdog() {
  watchdog_.Start(
      options_.watchdog, [this] { return SampleProgress(); },
      [this](const Status& status) {
        RecordUnhealthy(status);
        stop_.store(true, std::memory_order_release);
      });
}

void ParallelEngineBase::RecordUnhealthy(const Status& status) {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (health_.ok()) health_ = status;
}

void ParallelEngineBase::Sync() {
  FlushAllStaged(/*deadline_ns=*/-1);
  if (wal_ != nullptr) {
    wal_->PollSnapshotCompletion();
    wal_->Flush(/*sync=*/true);
  }
}

void ParallelEngineBase::HandleSnapshotEvent(uint32_t joiner,
                                             uint64_t epoch) {
  if (wal_ == nullptr) return;
  std::vector<StreamEvent> state;
  if (!CollectSnapshotState(joiner, &state)) {
    // Engine without snapshot support (e.g. SplitJoin): abort the epoch;
    // the log is simply never truncated and recovery replays all of it.
    wal_->MarkSnapshotFailed(epoch);
    return;
  }
  // A write failure marked the epoch failed inside the manager already.
  (void)wal_->WriteJoinerSnapshot(epoch, joiner, state);
}

Status ParallelEngineBase::BeginRecovery() {
  if (wal_ == nullptr) return Status::OK();  // durability off: trivial
  if (!started_ || finished_) {
    return Status::FailedPrecondition(
        "BeginRecovery needs a started, unfinished engine");
  }
  if (ingest_begun_ || replaying_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "recovery must precede the first Push/SignalWatermark");
  }
  recovery_done_ = true;  // even an empty plan counts as "recovered"
  recovery_start_us_ = MonotonicNowUs();
  auto plan = std::make_unique<WalReplayPlan>();
  const Status s = BuildReplayPlan(wal_->dir(), plan.get());
  if (!s.ok()) return s;
  if (options_.durability.recover_to_watermark) {
    // Stop the replay at the watermark-consistent cut and physically
    // truncate past it: a later recovery must not resurrect records
    // this one logically discarded (the router replays them itself,
    // and LSN-dedup cannot catch records that only *look* new).
    const uint64_t cut = plan->watermark_cut_lsn;
    uint64_t dropped = 0;
    while (!plan->records.empty() && plan->records.back().lsn > cut) {
      plan->records.pop_back();
      ++dropped;
    }
    const Status ts = TruncateLogPastLsn(wal_->dir(), cut, nullptr);
    if (!ts.ok()) return ts;
    if (plan->max_lsn > cut) plan->max_lsn = cut;
    recovered_watermark_ = plan->watermark_cut;
    if (dropped > 0) {
      wal_warnings_.push_back(
          "watermark-cut recovery dropped " + std::to_string(dropped) +
          " record(s) past lsn " + std::to_string(cut) +
          "; a router replays them from its un-acked buffer");
    }
  }
  replay_plan_ = std::move(plan);
  replay_stage_ = 0;
  replay_pos_ = 0;
  replayed_tuples_ = 0;
  replayed_watermarks_ = 0;
  replaying_.store(true, std::memory_order_release);
  if (!replay_plan_->catalog.empty()) {
    // Restore the standing-query catalog in force at the snapshot
    // barrier *before* any snapshot event is pushed, so restored probes
    // and pendings land under the right set of queries. With replaying_
    // set, the adds do not re-log themselves.
    QueryCatalog catalog;
    const Status cs = QueryCatalog::Parse(replay_plan_->catalog, &catalog);
    if (!cs.ok()) {
      // The manifest is CRC-guarded; a catalog that fails to parse is
      // real damage, not a torn tail.
      replay_plan_.reset();
      replaying_.store(false, std::memory_order_release);
      return cs;
    }
    ApplyManifestCatalog(catalog);
  }
  return Status::OK();
}

bool ParallelEngineBase::RecoveryStep(size_t max_events) {
  if (!replaying_.load(std::memory_order_relaxed)) return false;
  size_t budget = max_events == 0 ? SIZE_MAX : max_events;
  WalReplayPlan& plan = *replay_plan_;
  while (budget > 0) {
    if (replay_stage_ == 0) {
      // Snapshot contents re-enter through normal ingest; the gate's
      // watermark is still -inf here, so every tuple is admitted no
      // matter how old.
      if (replay_pos_ >= plan.snapshot_events.size()) {
        replay_stage_ = 1;
        replay_pos_ = 0;
        continue;
      }
      Push(plan.snapshot_events[replay_pos_++], MonotonicNowUs());
      ++replayed_tuples_;
      --budget;
    } else if (replay_stage_ == 1) {
      if (plan.has_snapshot) {
        // Restore the watermark in force at the snapshot barrier before
        // the log suffix, so suffix-replay gate decisions match the
        // original run.
        SignalWatermark(plan.restore_watermark);
        ++replayed_watermarks_;
        --budget;
      }
      replay_stage_ = 2;
      replay_pos_ = 0;
    } else if (replay_stage_ == 2) {
      if (replay_pos_ >= plan.records.size()) {
        replay_stage_ = 3;
        break;
      }
      const WalReplayRecord& record = plan.records[replay_pos_++];
      switch (record.kind) {
        case WalReplayRecord::Kind::kWatermark:
          SignalWatermark(record.watermark);
          ++replayed_watermarks_;
          break;
        case WalReplayRecord::Kind::kAddQuery: {
          const Status s = AddQuery(record.query_id, record.query_spec);
          if (!s.ok()) {
            wal_warnings_.push_back("replayed add-query '" +
                                    record.query_id +
                                    "' rejected: " + s.message());
          }
          break;
        }
        case WalReplayRecord::Kind::kRemoveQuery: {
          const Status s = RemoveQuery(record.query_id);
          if (!s.ok()) {
            wal_warnings_.push_back("replayed remove-query '" +
                                    record.query_id +
                                    "' rejected: " + s.message());
          }
          break;
        }
        case WalReplayRecord::Kind::kTuple:
          Push(record.event, MonotonicNowUs());
          ++replayed_tuples_;
          break;
      }
      --budget;
    } else {
      break;
    }
  }
  if (replay_stage_ >= 2 && replay_pos_ >= plan.records.size()) {
    FinishRecovery();
    return false;
  }
  return true;
}

void ParallelEngineBase::FinishRecovery() {
  WalReplayPlan& plan = *replay_plan_;
  FlushAllStaged(/*deadline_ns=*/-1);
  wal_->RecordReplay(replayed_tuples_, replayed_watermarks_,
                     plan.torn_tails,
                     MonotonicNowUs() - recovery_start_us_);
  wal_->ResumeAppends(plan.max_lsn + 1);
  if (plan.torn_tails > 0) {
    wal_warnings_.push_back(
        "recovery hit " + std::to_string(plan.torn_tails) +
        " torn log tail(s) (" + std::to_string(plan.torn_bytes) +
        " byte(s) discarded); loss is bounded by the fsync policy of the "
        "crashed run");
  }
  replay_plan_.reset();
  replaying_.store(false, std::memory_order_release);
}

bool ParallelEngineBase::Recovering() const {
  return replaying_.load(std::memory_order_acquire);
}

WalStats ParallelEngineBase::SampleWal() const {
  return wal_ != nullptr ? wal_->StatsSnapshot() : WalStats{};
}

void ParallelEngineBase::CrashForTest() {
  if (!started_ || finished_) return;
  finished_ = true;
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads_) t.join();
  threads_.clear();
  watchdog_.Stop();
  StopAuxiliary();
  if (wal_ != nullptr) wal_->SimulateCrash();
}

}  // namespace oij
