#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "join/reference_join.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*values)[lo] + ((*values)[hi] - (*values)[lo]) * frac;
}

namespace {

/// Time stolen by the hypervisor from all CPUs, in clock ticks (the
/// eighth value of /proc/stat's "cpu" line); 0 where unavailable.
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  int64_t fields[8] = {};
  in >> label;
  for (int64_t& field : fields) in >> field;
  return in ? fields[7] : 0;
}

}  // namespace

bool RepSchedule::Next() {
  if (started_) ++index_;
  started_ = true;
  rep_start_ns_ = NowNs();
  rep_start_steal_ticks_ = StealTicks();
  if (index_ == 1) measure_start_ns_ = rep_start_ns_;
  if (index_ <= (trace_ ? 2u : 1u)) return true;
  return static_cast<double>(rep_start_ns_ - measure_start_ns_) / 1e9 <
         seconds_;
}

double RepSchedule::StolenFraction() const {
  static const double kTickSeconds = 1.0 / sysconf(_SC_CLK_TCK);
  const double stolen_s =
      static_cast<double>(StealTicks() - rep_start_steal_ticks_) *
      kTickSeconds;
  const double capacity_s = static_cast<double>(NowNs() - rep_start_ns_) /
                            1e9 * std::thread::hardware_concurrency();
  return stolen_s / capacity_s;
}

void RepSamples::Add(const std::map<std::string, double>& rep,
                     double stolen_fraction) {
  reps_.push_back(Rep{stolen_fraction, rep});
}

double RepSamples::StolenCutoff() const {
  std::vector<double> stolen;
  for (const Rep& rep : reps_) stolen.push_back(rep.stolen_fraction);
  return Median(std::move(stolen));
}

size_t RepSamples::used() const {
  const double cutoff = StolenCutoff();
  return static_cast<size_t>(
      std::count_if(reps_.begin(), reps_.end(), [cutoff](const Rep& rep) {
        return rep.stolen_fraction <= cutoff;
      }));
}

std::map<std::string, double> RepSamples::Medians() const {
  const double cutoff = StolenCutoff();
  std::map<std::string, std::vector<double>> values;
  for (const Rep& rep : reps_) {
    if (rep.stolen_fraction > cutoff) continue;
    for (const auto& [name, value] : rep.values) values[name].push_back(value);
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : values) out[name] = Median(std::move(v));
  return out;
}

std::vector<oij::StreamEvent> GenerateArrivals(
    const oij::WorkloadSpec& spec) {
  oij::WorkloadGenerator gen(spec);
  std::vector<oij::StreamEvent> events;
  events.reserve(spec.total_tuples);
  oij::StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

bool SameArrivals(const std::vector<oij::StreamEvent>& a,
                  const std::vector<oij::StreamEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const oij::StreamEvent& x, const oij::StreamEvent& y) {
                      return x.stream == y.stream && x.tuple == y.tuple;
                    });
}

// --- MemoryMeter ---------------------------------------------------------

namespace {

/// Reads a "Name:   <n> kB" field of /proc/self/status; -1 if absent.
int64_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::atoll(line.c_str() + prefix.size());
    }
  }
  return -1;
}

/// Returns freed heap to the kernel and resets VmHWM to the current RSS.
void TrimAndResetPeak() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

}  // namespace

MemoryMeter::MemoryMeter() { TrimAndResetPeak(); }

void MemoryMeter::BeginRep() {
  peak_kb_ = std::max(peak_kb_, ProcStatusKb("VmHWM"));
  TrimAndResetPeak();
  baseline_kb_ = ProcStatusKb("VmRSS");
}

double MemoryMeter::RepGrowthMb() const {
  const int64_t peak = ProcStatusKb("VmHWM");
  return static_cast<double>(std::max<int64_t>(peak - baseline_kb_, 0)) /
         1024.0;
}

double MemoryMeter::PeakMb() {
  peak_kb_ = std::max(peak_kb_, ProcStatusKb("VmHWM"));
  return static_cast<double>(peak_kb_) / 1024.0;
}

// --- ResultLog --------------------------------------------------------

namespace {
std::atomic<uint64_t> g_next_log_id{1};
}  // namespace

ResultLog::ResultLog(size_t shards, size_t rows_per_shard)
    : id_(g_next_log_id.fetch_add(1, std::memory_order_relaxed)) {
  for (size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // resize() writes every row, so the pages are resident before the
    // clock starts; clear() keeps them.
    shard->rows.resize(rows_per_shard);
    shard->rows.clear();
    shards_.push_back(std::move(shard));
  }
}

ResultLog::Shard* ResultLog::LocalShard() {
  thread_local uint64_t owner = 0;
  thread_local Shard* shard = nullptr;
  if (owner == id_) return shard;
  const size_t index = next_shard_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(grow_mu_);
  if (index >= shards_.size()) {
    while (shards_.size() <= index) shards_.push_back(std::make_unique<Shard>());
  }
  shard = shards_[index].get();
  owner = id_;
  return shard;
}

void ResultLog::OnResult(const oij::JoinResult& result) {
  LocalShard()->rows.push_back(ResultRow{result.base.ts, result.base.key,
                                         result.match_count, result.aggregate,
                                         result.arrival_us, result.emit_us,
                                         0});
}

std::vector<ResultRow> ResultLog::Take() {
  std::lock_guard<std::mutex> lock(grow_mu_);
  std::vector<ResultRow> all;
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->rows.size();
  all.reserve(total);
  for (auto& shard : shards_) {
    all.insert(all.end(), shard->rows.begin(), shard->rows.end());
    shard->rows.clear();
  }
  return all;
}

// --- Oracle -----------------------------------------------------------

oij::Status Oracle::Build(const std::vector<oij::StreamEvent>& events,
                          std::vector<Expected> rows, Oracle* out) {
  // Arrival positions of the bases, sorted like the expectation rows.
  struct BasePos {
    oij::Timestamp ts;
    oij::Key key;
    uint64_t index;
  };
  std::vector<BasePos> bases;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].stream == oij::StreamId::kBase) {
      bases.push_back({events[i].tuple.ts, events[i].tuple.key, i});
    }
  }
  auto by_ts_key = [](const auto& a, const auto& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.key < b.key;
  };
  std::sort(bases.begin(), bases.end(), by_ts_key);
  std::sort(rows.begin(), rows.end(), by_ts_key);
  for (size_t i = 1; i < bases.size(); ++i) {
    if (bases[i].ts == bases[i - 1].ts && bases[i].key == bases[i - 1].key) {
      return oij::Status::InvalidArgument(
          Format("base (key=%llu, ts=%lld) repeats; results could not be "
                 "matched to their base",
                 static_cast<unsigned long long>(bases[i].key),
                 static_cast<long long>(bases[i].ts)));
    }
  }
  if (rows.size() != bases.size()) {
    return oij::Status::Internal(Format("oracle has %zu rows for %zu bases",
                                        rows.size(), bases.size()));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].ts != bases[i].ts || rows[i].key != bases[i].key) {
      return oij::Status::Internal(
          "oracle rows do not line up with the base tuples");
    }
    rows[i].arrival_index = bases[i].index;
  }
  out->rows_ = std::move(rows);
  return oij::Status::OK();
}

oij::Status Oracle::Exact(const std::vector<oij::StreamEvent>& events,
                          const oij::QuerySpec& spec, Oracle* out) {
  std::vector<Expected> rows;
  for (const oij::ReferenceResult& r : oij::ReferenceJoin(events, spec)) {
    rows.push_back(Expected{r.base.ts, r.base.key, r.match_count,
                            r.match_count, r.aggregate, true, 0});
  }
  return Build(events, std::move(rows), out);
}

oij::Status Oracle::EagerSandwich(const std::vector<oij::StreamEvent>& events,
                                  const oij::QuerySpec& spec,
                                  oij::Timestamp disorder, Oracle* out) {
  // Per-key sorted probe timestamps give the lower bound by two binary
  // searches; ReferenceJoin gives the full-window upper bound.
  std::map<oij::Key, std::vector<oij::Timestamp>> probes;
  for (const oij::StreamEvent& e : events) {
    if (e.stream == oij::StreamId::kProbe) {
      probes[e.tuple.key].push_back(e.tuple.ts);
    }
  }
  for (auto& [key, ts] : probes) std::sort(ts.begin(), ts.end());
  std::vector<Expected> rows;
  for (const oij::ReferenceResult& r : oij::ReferenceJoin(events, spec)) {
    uint64_t lo = 0;
    auto it = probes.find(r.base.key);
    if (it != probes.end()) {
      const oij::Timestamp start = spec.window.start_for(r.base.ts);
      const oij::Timestamp end =
          spec.window.end_for(r.base.ts) - disorder - 1;
      if (end >= start) {
        const auto& ts = it->second;
        lo = static_cast<uint64_t>(
            std::upper_bound(ts.begin(), ts.end(), end) -
            std::lower_bound(ts.begin(), ts.end(), start));
      }
    }
    rows.push_back(Expected{r.base.ts, r.base.key, lo, r.match_count,
                            r.aggregate, false, 0});
  }
  return Build(events, std::move(rows), out);
}

void Oracle::SortRows(std::vector<ResultRow>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const ResultRow& a, const ResultRow& b) {
              return a.ts != b.ts ? a.ts < b.ts : a.key < b.key;
            });
}

bool Oracle::RowMatches(const ResultRow& row, const Expected& want) {
  if (row.match_count < want.lo || row.match_count > want.hi) return false;
  if (!want.check_aggregate) return true;
  // Summation order differs between engines and the oracle.
  const double tolerance = 1e-6 * std::max(1.0, std::abs(want.aggregate));
  return std::abs(row.aggregate - want.aggregate) <= tolerance;
}

// --- SpanLog ----------------------------------------------------------

SpanLog::SpanLog(size_t capacity) : capacity_(capacity) {}

void SpanLog::Record(uint32_t id, SpanName name, int64_t start_ns,
                     int64_t end_ns, uint32_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{id, parent, name, start_ns, end_ns});
}

bool SpanLog::Write(const std::string& path) const {
  static constexpr const char* kNames[] = {
      "rep",  "setup",  "run",    "next",    "push",   "watermark",
      "finish", "send", "result", "ingress", "engine", "egress"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  if (dropped_ > 0) {
    std::fprintf(f, "# %llu spans dropped past the cap of %zu\n",
                 static_cast<unsigned long long>(dropped_), capacity_);
  }
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u\t%u\t%s\t%lld\t%lld\n", s.id, s.parent,
                 kNames[static_cast<size_t>(s.name)],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// --- metrics helpers --------------------------------------------------

namespace {
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
}  // namespace

void AddEngineStatsMetrics(const oij::EngineStats& stats, double elapsed_s,
                           uint32_t joiners,
                           std::map<std::string, double>* out) {
  auto add = [out](const char* name, double value) { (*out)[name] = value; };
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  add("join.joiner_busy_frac",
      Ratio(static_cast<double>(stats.breakdown.busy_ns),
            elapsed_s * 1e9 * joiners));
  add("join.unbalancedness", stats.ActualUnbalancedness());
  add("join.rebalances", d(stats.rebalances));
  add("join.visited_per_op", Ratio(d(stats.visited), d(stats.join_ops)));
  add("join.matched_per_op", Ratio(d(stats.matched), d(stats.join_ops)));
  add("join.effectiveness", stats.Effectiveness());
  add("join.evicted_tuples", d(stats.evicted_tuples));
  add("join.peak_buffered_tuples", d(stats.peak_buffered_tuples));
  add("mem.arena_bytes", d(stats.mem.arena_reserved_bytes));
  add("mem.allocs_per_tuple",
      Ratio(d(stats.mem.arena_allocations), d(stats.input_tuples)));
  add("mem.ebr_backlog", d(stats.mem.ebr_retired_backlog));
  add("col.base_frac", Ratio(d(stats.columnar_bases), d(stats.results)));
  add("col.groups", d(stats.columnar_groups));
  add("col.fallbacks", d(stats.columnar_fallbacks));
}

uint64_t DroppedOrLate(const oij::EngineStats& stats) {
  return stats.late.tuples + stats.overload_dropped;
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace perfbench
