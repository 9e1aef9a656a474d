#ifndef OIJ_COMMON_TYPES_H_
#define OIJ_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace oij {

/// Event time, in microseconds. Window sizes in the paper range from
/// 100 us (Table V) to 150 s (Workload B), so microsecond resolution
/// covers the whole evaluated space.
using Timestamp = int64_t;

/// Join key. Real workloads use integral surrogate keys; string keys can
/// be hashed into this space upstream.
using Key = uint64_t;

inline constexpr Timestamp kMinTimestamp =
    std::numeric_limits<Timestamp>::min();
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();

/// Which input stream a tuple belongs to (Definition 2 in the paper:
/// S is the base stream, R is the probe stream).
enum class StreamId : uint8_t {
  kBase = 0,   ///< S: each base tuple opens a relative window.
  kProbe = 1,  ///< R: probe tuples fill the windows of base tuples.
};

/// An input tuple x = {t, k, p} (paper Table I).
struct Tuple {
  Timestamp ts = 0;
  Key key = 0;
  double payload = 0.0;

  friend bool operator==(const Tuple&, const Tuple&) = default;
};

/// A relative time window (PRE, FOL): for a base tuple with timestamp t,
/// probe tuples with ts in [t - pre, t + fol] match (Definition 2).
struct IntervalWindow {
  Timestamp pre = 0;  ///< preceding offset, >= 0.
  Timestamp fol = 0;  ///< following offset, >= 0.

  Timestamp start_for(Timestamp base_ts) const { return base_ts - pre; }
  Timestamp end_for(Timestamp base_ts) const { return base_ts + fol; }
  Timestamp length() const { return pre + fol; }

  friend bool operator==(const IntervalWindow&,
                         const IntervalWindow&) = default;
};

/// One finalized join result: the base tuple together with the aggregate
/// of one standing query over its matched probe tuples. Per query, the
/// cardinality of results equals the cardinality of the base stream
/// (Section II-C). Several features over one window are several
/// standing queries over one shared index, each emitting its own result
/// tagged with `query`.
struct JoinResult {
  Tuple base;
  /// The value of the query's aggregate; NaN for an empty window's
  /// avg/min/max (SQL NULL stand-in).
  double aggregate = 0.0;
  uint64_t match_count = 0;

  /// Monotonic-clock arrival of the base tuple, for latency accounting.
  int64_t arrival_us = 0;
  /// Monotonic-clock time the result was emitted.
  int64_t emit_us = 0;

  /// Ordinal of the standing query this result belongs to. 0 is the
  /// primary query an engine was constructed with; additional standing
  /// queries registered through the catalog get 1, 2, ... in
  /// registration order.
  uint32_t query = 0;
};

}  // namespace oij

#endif  // OIJ_COMMON_TYPES_H_
