#include "metrics/stats.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

namespace oij {

void JsonOut::Key(std::string_view name) {
  String(name);  // String() emits the separating comma
  out_ += ":";
  pending_comma_ = false;
}

void JsonOut::String(std::string_view s) {
  Comma();
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  pending_comma_ = true;
}

void JsonOut::Number(double v) {
  Comma();
  out_ += std::isfinite(v) ? FormatSampleValue(v) : "null";
  pending_comma_ = true;
}

void JsonOut::Bool(bool v) {
  Comma();
  out_ += v ? "true" : "false";
  pending_comma_ = true;
}

void JsonOut::Open(char bracket) {
  Comma();
  out_ += bracket;
  pending_comma_ = false;
}

void JsonOut::Close(char bracket) {
  out_ += bracket;
  pending_comma_ = true;
}

void JsonOut::Comma() {
  if (pending_comma_) out_ += ',';
  pending_comma_ = false;
}

Stat& StatList::Add(StatType type, std::string_view path,
                    std::string_view family, std::string_view help,
                    std::vector<double> values, PrometheusLabels labels) {
  Stat& s = stats_.emplace_back();
  s.type = type;
  s.path = std::string(path);
  s.family = std::string(family);
  s.help = std::string(help);
  s.values = std::move(values);
  s.labels = std::move(labels);
  return s;
}

std::string RenderStatsPrometheus(const std::vector<Stat>& stats) {
  PrometheusWriter w;
  for (const Stat& s : stats) {
    if (s.type == StatType::kText) continue;
    if (s.type == StatType::kHistogram) {
      w.Histogram(s.family, s.help, *s.histogram, s.labels);
      continue;
    }
    for (size_t i = 0; i < s.values.size(); ++i) {
      if (std::isnan(s.values[i])) continue;
      PrometheusLabels labels = s.labels;
      if (!s.label.empty()) labels.emplace_back(s.label, s.keys[i]);
      if (s.type == StatType::kCounter) {
        w.Counter(s.family, s.help, s.values[i], labels);
      } else {
        w.Gauge(s.family, s.help, s.values[i], labels);
      }
    }
  }
  return w.Take();
}

namespace {

/// The /statz document as a tree: object members keep the order in which
/// the stat list first names them. A leaf is a whole stat, or value
/// `index` of a stat inside a table row.
struct JsonNode {
  static constexpr size_t kWhole = SIZE_MAX;
  std::vector<std::pair<std::string, std::unique_ptr<JsonNode>>> members;
  bool table = false;
  std::vector<std::unique_ptr<JsonNode>> rows;
  const Stat* stat = nullptr;
  size_t index = kWhole;

  JsonNode* Member(std::string_view name) {
    for (auto& [key, child] : members) {
      if (key == name) return child.get();
    }
    members.emplace_back(std::string(name), std::make_unique<JsonNode>());
    return members.back().second.get();
  }

  void Insert(std::string_view path, const Stat& s, size_t i) {
    const size_t dot = path.find('.');
    const std::string_view segment = path.substr(0, dot);
    if (!segment.ends_with("[]")) {
      JsonNode* child = Member(segment);
      if (dot != std::string_view::npos) {
        return child->Insert(path.substr(dot + 1), s, i);
      }
      child->stat = &s;
      child->index = i;
      return;
    }
    JsonNode* t = Member(segment.substr(0, segment.size() - 2));
    t->table = true;
    for (size_t row = 0; row < s.keys.size(); ++row) {
      if (t->rows.size() <= row) {
        t->rows.push_back(std::make_unique<JsonNode>());
      }
      t->rows[row]->Insert(path.substr(dot + 1), s, row);
    }
  }
};

void RenderValue(JsonOut& j, const Stat& s, size_t i) {
  switch (s.type) {
    case StatType::kText:
      j.String(s.texts[i]);
      break;
    case StatType::kFlag:
      j.Bool(s.values[i] != 0.0);
      break;
    case StatType::kHistogram:
      j.Number(static_cast<double>(s.histogram->count()));
      break;
    default:
      j.Number(s.values[i]);
  }
}

void RenderNode(JsonOut& j, const JsonNode& node) {
  if (node.stat != nullptr) {
    const Stat& s = *node.stat;
    if (node.index != JsonNode::kWhole) return RenderValue(j, s, node.index);
    if (s.label.empty()) return RenderValue(j, s, 0);
    j.Open('[');
    const size_t n =
        s.type == StatType::kText ? s.texts.size() : s.values.size();
    for (size_t i = 0; i < n; ++i) RenderValue(j, s, i);
    j.Close(']');
  } else if (node.table) {
    j.Open('[');
    for (const auto& row : node.rows) RenderNode(j, *row);
    j.Close(']');
  } else {
    j.Open('{');
    for (const auto& [key, child] : node.members) {
      j.Key(key);
      RenderNode(j, *child);
    }
    j.Close('}');
  }
}

}  // namespace

std::string RenderStatsJson(const std::vector<Stat>& stats) {
  JsonNode root;
  for (const Stat& s : stats) root.Insert(s.path, s, JsonNode::kWhole);
  JsonOut j;
  RenderNode(j, root);
  std::string out = j.Take();
  out += '\n';
  return out;
}

}  // namespace oij
