#include "metrics/prometheus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace oij {

namespace {

bool NameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

}  // namespace

std::string FormatSampleValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out.push_back('_');
  for (char c : name) out.push_back(NameChar(c) ? c : '_');
  if (out.empty()) out = "_";
  return out;
}

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void PrometheusWriter::Header(const std::string& name, std::string_view help,
                              std::string_view type) {
  if (std::find(seen_families_.begin(), seen_families_.end(), name) !=
      seen_families_.end()) {
    return;
  }
  seen_families_.push_back(name);
  text_ += "# HELP " + name + " ";
  // HELP text escapes backslash and newline only.
  for (char c : help) {
    if (c == '\\') {
      text_ += "\\\\";
    } else if (c == '\n') {
      text_ += "\\n";
    } else {
      text_.push_back(c);
    }
  }
  text_ += "\n# TYPE " + name + " ";
  text_ += type;
  text_ += "\n";
}

void PrometheusWriter::Sample(const std::string& name,
                              const PrometheusLabels& labels, double value) {
  text_ += name;
  if (!labels.empty()) {
    text_ += "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) text_ += ",";
      first = false;
      text_ += SanitizeMetricName(k) + "=\"" + EscapeLabelValue(v) + "\"";
    }
    text_ += "}";
  }
  text_ += " " + FormatSampleValue(value) + "\n";
}

void PrometheusWriter::Counter(std::string_view name, std::string_view help,
                               double value, const PrometheusLabels& labels) {
  const std::string n = SanitizeMetricName(name);
  Header(n, help, "counter");
  Sample(n, labels, value);
}

void PrometheusWriter::Gauge(std::string_view name, std::string_view help,
                             double value, const PrometheusLabels& labels) {
  const std::string n = SanitizeMetricName(name);
  Header(n, help, "gauge");
  Sample(n, labels, value);
}

void PrometheusWriter::Histogram(std::string_view name, std::string_view help,
                                 const LatencyRecorder& recorder,
                                 const PrometheusLabels& labels) {
  const std::string n = SanitizeMetricName(name);
  Header(n, help, "histogram");
  for (const auto& bucket : recorder.CumulativeBuckets()) {
    PrometheusLabels with_le = labels;
    with_le.emplace_back(
        "le", FormatSampleValue(static_cast<double>(bucket.upper_us)));
    Sample(n + "_bucket", with_le,
           static_cast<double>(bucket.cumulative_count));
  }
  PrometheusLabels inf = labels;
  inf.emplace_back("le", "+Inf");
  Sample(n + "_bucket", inf, static_cast<double>(recorder.count()));
  Sample(n + "_sum", labels, static_cast<double>(recorder.sum_us()));
  Sample(n + "_count", labels, static_cast<double>(recorder.count()));
}

}  // namespace oij
