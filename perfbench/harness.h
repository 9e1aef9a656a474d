#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the canonical benchmark: run options, the report a
// workload hands back, statistics, the memory probe, the result log the
// engines write into, the oracle check, and the tracing primitives
// (spans and sampled layer timers). Everything here sits outside the
// library: it measures the system through its public calls only.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_spec.h"
#include "join/engine.h"
#include "stream/generator.h"
#include "stream/workload.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct RunOptions {
  uint64_t seed = 42;
  /// How long the measured reps of one workload run, in seconds. At least
  /// one rep runs (two when tracing, one traced and one untraced).
  double seconds = 20.0;
  /// false: end-to-end metrics from untraced reps. true: per-layer
  /// metrics from traced reps, alternated with untraced reps so the
  /// tracing overhead is measured in the same process.
  bool trace = false;
  /// Tiny inputs (a few thousand tuples) for the self-test.
  bool smoke = false;
  /// Directory for temporary files (the serve workload's WAL).
  std::string scratch_dir = ".";
  /// Traced runs write their spans here when non-empty.
  std::string spans_path;
};

/// What one workload reports. `attempted` counts expected results over
/// every rep; `failed` counts results missing or wrong against the oracle
/// plus input tuples dropped, late, lost or in doubt.
struct WorkloadReport {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Checks that are not counted per result (engine health, set-up
  /// invariants). False makes the run incorrect regardless of `failed`.
  bool checks_ok = true;
  std::map<std::string, double> metrics;
  /// Human-readable detail printed before the JSON line.
  std::vector<std::string> lines;
};

/// Monotonic clock in nanoseconds (the same steady clock the library's
/// arrival and emit stamps use, at finer resolution).
int64_t NowNs();

/// Median (0 for no values).
double Median(std::vector<double> values);

/// Linearly interpolated quantile, q in [0, 1]. Sorts `values`.
double Quantile(std::vector<double>* values, double q);

/// The reps of one workload run. Rep 0 warms up: it is checked but not
/// measured. The measured reps then run until `seconds` have passed since
/// the warm-up ended (at least one; with tracing at least one untraced
/// and one traced, alternating).
class RepSchedule {
 public:
  explicit RepSchedule(const RunOptions& opts)
      : seconds_(opts.seconds), trace_(opts.trace) {}

  /// Advances to the next rep; false when the run is over.
  bool Next();

  size_t index() const { return index_; }
  bool warmup() const { return index_ == 0; }
  bool traced() const { return trace_ && index_ > 0 && index_ % 2 == 0; }

  /// Share of the machine's CPU time the hypervisor has stolen since this
  /// rep began (/proc/stat steal): time the host's other tenants took
  /// from the system under test.
  double StolenFraction() const;

 private:
  double seconds_;
  bool trace_;
  bool started_ = false;
  size_t index_ = 0;
  int64_t measure_start_ns_ = 0;
  int64_t rep_start_ns_ = 0;
  int64_t rep_start_steal_ticks_ = 0;
};

/// Per-rep values of a run's metrics, folded into one median each over
/// the half of the reps the host disturbed least (every rep whose stolen
/// fraction is at most the run's median). On a shared VM, stolen time
/// makes the stalls that set a rep's p99; those reps measure the other
/// tenants, not the system under test.
class RepSamples {
 public:
  void Add(const std::map<std::string, double>& rep, double stolen_fraction);

  std::map<std::string, double> Medians() const;

  size_t reps() const { return reps_.size(); }
  /// Reps the medians use.
  size_t used() const;

 private:
  double StolenCutoff() const;

  struct Rep {
    double stolen_fraction;
    std::map<std::string, double> values;
  };
  std::vector<Rep> reps_;
};

/// Generates the arrival sequence of `spec` (its seed included).
std::vector<oij::StreamEvent> GenerateArrivals(const oij::WorkloadSpec& spec);

bool SameArrivals(const std::vector<oij::StreamEvent>& a,
                  const std::vector<oij::StreamEvent>& b);

/// Resident memory of the process. The peak is the kernel's high-water
/// mark (VmHWM) over the workload, counted from the meter's construction.
/// A rep's growth is measured after freed heap has been returned to the
/// kernel and the mark reset, so it is what the system under test added
/// on top of the benchmark's own preloaded buffers during that rep.
class MemoryMeter {
 public:
  MemoryMeter();

  /// Starts a rep's growth measurement.
  void BeginRep();
  double RepGrowthMb() const;

  /// Peak resident memory of the process since construction.
  double PeakMb();

 private:
  int64_t peak_kb_ = 0;
  int64_t baseline_kb_ = 0;
};

/// One result as the benchmark records it (after the clock stops it is
/// compared with the oracle; `recv_ns` is the client receipt time on the
/// serve workload and 0 in-process).
struct ResultRow {
  oij::Timestamp ts = 0;
  oij::Key key = 0;
  uint64_t match_count = 0;
  double aggregate = 0.0;
  int64_t arrival_us = 0;
  int64_t emit_us = 0;
  int64_t recv_ns = 0;
};

/// A ResultSink that only appends: each joiner thread claims its own
/// pre-touched shard, so recording costs a store, not a lock or a page
/// fault.
class ResultLog final : public oij::ResultSink {
 public:
  ResultLog(size_t shards, size_t rows_per_shard);

  void OnResult(const oij::JoinResult& result) override;

  /// All rows recorded so far, shards concatenated. Call after Finish().
  std::vector<ResultRow> Take();

 private:
  struct Shard {
    std::vector<ResultRow> rows;
  };
  Shard* LocalShard();

  const uint64_t id_;  // distinguishes logs that reuse an address
  std::atomic<size_t> next_shard_{0};
  std::mutex grow_mu_;  // guards shards_ growth past the pre-touched ones
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The expected outcome for one base tuple.
struct Expected {
  oij::Timestamp ts = 0;
  oij::Key key = 0;
  uint64_t lo = 0;  ///< match_count bounds (equal for exact emit)
  uint64_t hi = 0;
  double aggregate = 0.0;
  bool check_aggregate = true;
  uint64_t arrival_index = 0;  ///< position of the base in the sequence
};

/// Result check against ReferenceJoin, keyed by (ts, key), which set-up
/// proves unique among base tuples.
class Oracle {
 public:
  /// Watermark emit: every base exactly once, with ReferenceJoin's
  /// match count and aggregate.
  static oij::Status Exact(const std::vector<oij::StreamEvent>& events,
                           const oij::QuerySpec& spec, Oracle* out);

  /// Eager emit under bounded disorder (the bounds of the engine test
  /// EagerApproximationIsSandwiched): every base exactly once, its match
  /// count between the probes in [start, end - disorder - 1] and the
  /// full window's count. Aggregates are not compared.
  static oij::Status EagerSandwich(
      const std::vector<oij::StreamEvent>& events, const oij::QuerySpec& spec,
      oij::Timestamp disorder, Oracle* out);

  size_t size() const { return rows_.size(); }

  struct Outcome {
    uint64_t missing = 0;
    uint64_t wrong = 0;
    uint64_t extra = 0;  ///< duplicates or bases that do not exist
    uint64_t failures() const { return missing + wrong + extra; }
  };

  /// Sorts `rows` and compares them with the expectation. `on_match` is
  /// called for every row that found its base (right or wrong).
  template <typename OnMatch>
  Outcome Verify(std::vector<ResultRow>* rows, OnMatch on_match) const;
  Outcome Verify(std::vector<ResultRow>* rows) const {
    return Verify(rows, [](const ResultRow&, const Expected&) {});
  }

 private:
  static oij::Status Build(const std::vector<oij::StreamEvent>& events,
                           std::vector<Expected> rows, Oracle* out);
  static void SortRows(std::vector<ResultRow>* rows);
  static bool RowMatches(const ResultRow& row, const Expected& want);

  std::vector<Expected> rows_;  // sorted by (ts, key)
};

/// Span names: one per layer boundary the benchmark times.
enum class SpanName : uint8_t {
  kRep,        ///< one rep: set-up, run, teardown
  kSetup,      ///< engine/server construction and start
  kRun,        ///< first Push to Finish returning
  kNext,       ///< TraceSource::Next (sampled)
  kPush,       ///< JoinEngine::Push (sampled)
  kWatermark,  ///< JoinEngine::SignalWatermark
  kFinish,     ///< JoinEngine::Finish
  kSend,       ///< client SendAll of one batch
  kResult,     ///< serve: due time to client receipt (sampled)
  kIngress,    ///< serve: due time to server arrival stamp
  kEngine,     ///< serve: arrival stamp to emit stamp
  kEgress,     ///< serve: emit stamp to client receipt
};

/// In-memory span store, written out when the run ends. Capped; past the
/// cap spans are counted but not kept.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity = 1u << 20);

  /// Reserves an id for a span whose children are recorded before it.
  uint32_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(uint32_t id, SpanName name, int64_t start_ns, int64_t end_ns,
              uint32_t parent);
  uint32_t Record(SpanName name, int64_t start_ns, int64_t end_ns,
                  uint32_t parent) {
    const uint32_t id = NewId();
    Record(id, name, start_ns, end_ns, parent);
    return id;
  }

  /// Tab-separated `id parent name start_ns end_ns`, one span a line,
  /// after a comment line when spans were dropped past the cap.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint32_t id;
    uint32_t parent;
    SpanName name;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::atomic<uint32_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
  size_t capacity_;
  uint64_t dropped_ = 0;
};

/// Exact call count plus 1-in-64 sampled durations. The sample choice is
/// pseudo-random so it cannot lock onto a periodic cost (the transport
/// flushes every 32 pushes). Single-threaded.
class LayerTimer {
 public:
  explicit LayerTimer(uint64_t seed = 0x9E3779B97F4A7C15ULL) : rng_(seed | 1) {}

  /// Counts one call; true when this call should be timed.
  bool Sample() {
    ++calls_;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return (rng_ & 63) == 0;
  }
  void Add(int64_t ns) {
    sampled_ns_ += ns;
    ++sampled_;
  }
  /// Times every call (for rare calls such as watermarks).
  void AddExact(int64_t ns) {
    ++calls_;
    Add(ns);
  }

  uint64_t calls() const { return calls_; }
  double MeanNs() const {
    return sampled_ == 0 ? 0.0
                         : static_cast<double>(sampled_ns_) /
                               static_cast<double>(sampled_);
  }

 private:
  uint64_t rng_;
  uint64_t calls_ = 0;
  uint64_t sampled_ = 0;
  int64_t sampled_ns_ = 0;
};

/// Per-layer values common to every workload: read from the EngineStats
/// that Finish() returns. `elapsed_s` is the measured window.
void AddEngineStatsMetrics(const oij::EngineStats& stats, double elapsed_s,
                           uint32_t joiners,
                           std::map<std::string, double>* out);

/// Input tuples the engine did not treat as on-time joined input.
uint64_t DroppedOrLate(const oij::EngineStats& stats);

std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// The three workloads (closed_loop.cc and serve.cc).
WorkloadReport RunIngest(const RunOptions& opts);
WorkloadReport RunScan(const RunOptions& opts);
WorkloadReport RunServe(const RunOptions& opts);

// --- template definitions -------------------------------------------

template <typename OnMatch>
Oracle::Outcome Oracle::Verify(std::vector<ResultRow>* rows,
                               OnMatch on_match) const {
  SortRows(rows);
  Outcome out;
  size_t i = 0;
  for (const Expected& want : rows_) {
    // Rows sorting before this base match no base at all.
    while (i < rows->size() &&
           ((*rows)[i].ts < want.ts ||
            ((*rows)[i].ts == want.ts && (*rows)[i].key < want.key))) {
      ++out.extra;
      ++i;
    }
    if (i == rows->size() || (*rows)[i].ts != want.ts ||
        (*rows)[i].key != want.key) {
      ++out.missing;
      continue;
    }
    const ResultRow& row = (*rows)[i++];
    if (!RowMatches(row, want)) ++out.wrong;
    on_match(row, want);
    // A second result for the same base is a duplicate.
    while (i < rows->size() && (*rows)[i].ts == want.ts &&
           (*rows)[i].key == want.key) {
      ++out.extra;
      ++i;
    }
  }
  out.extra += rows->size() - i;
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
