#ifndef OIJ_CORE_QUERY_SPEC_H_
#define OIJ_CORE_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "agg/aggregate.h"
#include "common/status.h"
#include "common/types.h"

namespace oij {

/// When a base tuple's aggregate is emitted.
enum class EmitMode : uint8_t {
  /// Join-on-arrival (Flink interval-join style, and what the paper's
  /// latency figures imply: Workload A has 1 s lateness yet 10 ms
  /// latencies). A base tuple is finalized at the end of its ring burst,
  /// at most one ring of events later (once its FOL offset has been
  /// observed), against everything buffered by then. Probes that arrive
  /// after that are
  /// missed, so under disorder d ≤ lateness a result is sandwiched: it
  /// never over-counts and never misses a probe more than d older than
  /// its window end.
  kEager = 0,
  /// Watermark-gated: a base tuple is finalized only once the watermark
  /// (max seen − lateness) passes its window end, so results are exact for
  /// any disorder within the lateness bound — the "100% accuracy" regime
  /// OpenMLDB applications require. Latency then includes the disorder
  /// wait.
  kWatermark,
};

/// What to do with a tuple that arrives after the watermark has already
/// passed its timestamp — i.e. the arrival violates the lateness bound
/// and the exactness guarantee no longer covers it.
enum class LatePolicy : uint8_t {
  /// Feed the tuple into the join anyway (seed behavior), but count it so
  /// the violation is observable. Results for already-finalized windows
  /// may still be missing the tuple; nothing is retracted.
  kBestEffortJoin = 0,
  /// Drop the tuple and count it. The surviving result set is exactly
  /// the reference join over the on-time subset of the input.
  kDropAndCount,
  /// Drop the tuple from the join but hand it to a LateSink side channel
  /// (dead-letter queue) for out-of-band reconciliation.
  kSideChannel,
};

std::string_view LatePolicyName(LatePolicy policy);

/// Parses a (case-sensitive, lower-case) late-policy name as produced by
/// LatePolicyName. Returns ParseError for unknown names.
Status LatePolicyFromName(std::string_view name, LatePolicy* out);

/// "eager" / "watermark".
std::string_view EmitModeName(EmitMode mode);

/// Parses an emit-mode name as produced by EmitModeName.
Status EmitModeFromName(std::string_view name, EmitMode* out);

/// The online interval join query (Definition 2): join base stream S with
/// probe stream R on key equality and relative window containment, then
/// aggregate per base tuple.
struct QuerySpec {
  /// (PRE, FOL) relative window in microseconds.
  IntervalWindow window{1000, 0};

  /// Lateness l in microseconds: max admissible disorder.
  Timestamp lateness_us = 100;

  AggKind agg = AggKind::kSum;

  EmitMode emit_mode = EmitMode::kEager;

  /// Handling of tuples that violate the lateness bound. The default
  /// preserves seed behavior (join them best-effort, but count).
  LatePolicy late_policy = LatePolicy::kBestEffortJoin;

  Status Validate() const;
};

}  // namespace oij

#endif  // OIJ_CORE_QUERY_SPEC_H_
