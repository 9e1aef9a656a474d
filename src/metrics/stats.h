#ifndef OIJ_METRICS_STATS_H_
#define OIJ_METRICS_STATS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "metrics/latency_recorder.h"
#include "metrics/prometheus.h"

namespace oij {

/// Minimal append-style JSON builder (objects and arrays are nested by
/// the caller; this handles escaping, separators and number forms).
class JsonOut {
 public:
  void Key(std::string_view name);
  void String(std::string_view s);
  /// Prints as FormatSampleValue does; non-finite values print as null.
  void Number(double v);
  void Bool(bool v);
  void Open(char bracket);
  void Close(char bracket);

  std::string Take() { return std::move(out_); }

 private:
  void Comma();

  std::string out_;
  bool pending_comma_ = false;
};

/// How a stat renders. Counters and gauges are numbers on both pages; a
/// flag is a JSON bool and a 0/1 Prometheus gauge; a histogram is its
/// sample count in JSON and the native histogram in Prometheus; text
/// (names, states, warnings) renders in JSON only, because Prometheus
/// samples are numbers.
enum class StatType : uint8_t { kCounter, kGauge, kFlag, kHistogram, kText };

/// One admin stat, declared once and rendered by both RenderStatsJson
/// (/statz) and RenderStatsPrometheus (/metrics).
struct Stat {
  StatType type = StatType::kGauge;
  /// Dotted /statz path, e.g. "engine_progress.memory.arena_bytes". A
  /// segment ending in "[]" is a table: one JSON object per label value,
  /// holding the rest of the path.
  std::string path;
  std::string family;  ///< Prometheus family (unused for text)
  std::string help;
  PrometheusLabels labels;  ///< constant labels of every sample
  /// Empty: one value. Otherwise the Prometheus label naming each of
  /// `values` (and `keys` its label values); outside a table the values
  /// render as a JSON array.
  std::string label;
  std::vector<std::string> keys;
  std::vector<double> values;  ///< NaN = absent: JSON null, no sample
  std::vector<std::string> texts;  ///< kText, one per value
  const LatencyRecorder* histogram = nullptr;
};

/// An admin plane's stats, in /statz order. Prometheus families must be
/// contiguous in the list (see PrometheusWriter).
class StatList {
 public:
  Stat& Add(StatType type, std::string_view path, std::string_view family,
            std::string_view help, std::vector<double> values = {},
            PrometheusLabels labels = {});

  void Counter(std::string_view path, std::string_view family,
               std::string_view help, double value,
               PrometheusLabels labels = {}) {
    Add(StatType::kCounter, path, family, help, {value}, std::move(labels));
  }
  void Gauge(std::string_view path, std::string_view family,
             std::string_view help, double value,
             PrometheusLabels labels = {}) {
    Add(StatType::kGauge, path, family, help, {value}, std::move(labels));
  }
  void Flag(std::string_view path, std::string_view family,
            std::string_view help, bool value) {
    Add(StatType::kFlag, path, family, help, {value ? 1.0 : 0.0});
  }
  void Text(std::string_view path, std::string_view value) {
    Add(StatType::kText, path, "", "").texts = {std::string(value)};
  }

  /// A stat with one value per `label` value: `get(row)` for each of
  /// `rows`, whose label values are `keys` ("0".."n-1", e.g. joiner or
  /// node ordinals, when empty). Text stats take strings from `get`.
  template <typename Row, typename Get = std::identity>
  Stat& Column(StatType type, std::string_view path, std::string_view family,
               std::string_view help, std::string_view label,
               const std::vector<Row>& rows, std::vector<std::string> keys,
               Get get = {}) {
    Stat& s = Add(type, path, family, help);
    s.label = std::string(label);
    s.keys = std::move(keys);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (s.keys.size() == i) s.keys.push_back(std::to_string(i));
      if constexpr (std::is_arithmetic_v<
                        std::decay_t<decltype(get(rows[i]))>>) {
        s.values.push_back(static_cast<double>(get(rows[i])));
      } else {
        s.texts.emplace_back(get(rows[i]));
      }
    }
    return s;
  }

  const std::vector<Stat>& stats() const { return stats_; }

 private:
  std::vector<Stat> stats_;
};

/// The Prometheus text exposition of `stats` (text stats skipped).
std::string RenderStatsPrometheus(const std::vector<Stat>& stats);

/// The JSON document of `stats`, newline-terminated.
std::string RenderStatsJson(const std::vector<Stat>& stats);

}  // namespace oij

#endif  // OIJ_METRICS_STATS_H_
