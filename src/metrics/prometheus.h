#ifndef OIJ_METRICS_PROMETHEUS_H_
#define OIJ_METRICS_PROMETHEUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/latency_recorder.h"

namespace oij {

/// Prometheus text-exposition (version 0.0.4) rendering for the admin
/// endpoint's /metrics page. Only the subset the serving layer needs:
/// counters, gauges, and histograms derived from LatencyRecorder.

/// Replaces every character outside [a-zA-Z0-9_:] with '_' (and prefixes
/// '_' when the first character is a digit) so arbitrary labels from
/// presets/engine names can never produce an unparseable metric name.
std::string SanitizeMetricName(std::string_view name);

/// Escapes backslash, double-quote, and newline per the exposition
/// format's label-value rules.
std::string EscapeLabelValue(std::string_view value);

/// Renders a sample value the way Prometheus clients do: integers without
/// a fractional part, everything else with enough digits to round-trip.
std::string FormatSampleValue(double v);

/// One ("name", "value") label pair; values are escaped at render time.
using PrometheusLabels = std::vector<std::pair<std::string, std::string>>;

/// Accumulates one exposition document. Metric families must be emitted
/// contiguously (all samples of a name together) — the writer emits
/// HELP/TYPE headers once per family, in first-use order.
class PrometheusWriter {
 public:
  void Counter(std::string_view name, std::string_view help, double value,
               const PrometheusLabels& labels = {});
  void Gauge(std::string_view name, std::string_view help, double value,
             const PrometheusLabels& labels = {});

  /// Renders `recorder` as a native histogram family: cumulative
  /// `_bucket{le="..."}` samples (exact integer counts, monotone by
  /// construction), the mandatory `le="+Inf"` bucket, `_sum`, and
  /// `_count`.
  void Histogram(std::string_view name, std::string_view help,
                 const LatencyRecorder& recorder,
                 const PrometheusLabels& labels = {});

  const std::string& text() const { return text_; }
  std::string Take() { return std::move(text_); }

 private:
  void Header(const std::string& name, std::string_view help,
              std::string_view type);
  void Sample(const std::string& name, const PrometheusLabels& labels,
              double value);

  std::string text_;
  std::vector<std::string> seen_families_;
};

}  // namespace oij

#endif  // OIJ_METRICS_PROMETHEUS_H_
