#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/latency_recorder.h"
#include "metrics/prometheus.h"
#include "server/admin.h"

namespace oij {
namespace {

// ------------------------------------------------------- name/label rules

TEST(Prometheus, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("oij_up"), "oij_up");
  EXPECT_EQ(SanitizeMetricName("ns:metric_total"), "ns:metric_total");
  EXPECT_EQ(SanitizeMetricName("scale-oij.latency"), "scale_oij_latency");
  EXPECT_EQ(SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(SanitizeMetricName("a b\tc"), "a_b_c");
}

TEST(Prometheus, EscapeLabelValue) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(Prometheus, LabelsRenderEscaped) {
  PrometheusWriter writer;
  writer.Gauge("g", "help", 1.0, {{"workload", "A\"B\\C\nD"}});
  EXPECT_NE(writer.text().find("g{workload=\"A\\\"B\\\\C\\nD\"} 1"),
            std::string::npos);
}

TEST(Prometheus, HelpTypeHeadersOncePerFamily) {
  PrometheusWriter writer;
  writer.Counter("c_total", "a counter", 1.0, {{"k", "x"}});
  writer.Counter("c_total", "a counter", 2.0, {{"k", "y"}});
  const std::string& text = writer.text();
  size_t first = text.find("# HELP c_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# HELP c_total", first + 1), std::string::npos);
  first = text.find("# TYPE c_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE c_total", first + 1), std::string::npos);
}

// ---------------------------------------------------- histogram invariants

/// Pulls every `name_bucket{le="..."} <count>` sample out of an
/// exposition document, in document order.
std::vector<std::pair<double, uint64_t>> ParseBuckets(
    const std::string& text, const std::string& name) {
  std::vector<std::pair<double, uint64_t>> out;
  const std::string needle = name + "_bucket{le=\"";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const size_t quote = text.find('"', pos);
    const std::string le = text.substr(pos, quote - pos);
    const size_t space = text.find(' ', quote);
    const size_t eol = text.find('\n', space);
    const std::string count = text.substr(space + 1, eol - space - 1);
    out.emplace_back(le == "+Inf" ? std::numeric_limits<double>::infinity()
                                  : std::stod(le),
                     static_cast<uint64_t>(std::stoull(count)));
    pos = eol;
  }
  return out;
}

double ParseGauge(const std::string& text, const std::string& sample) {
  // Anchor at line start so HELP/TYPE comment lines mentioning the
  // family name never match.
  const std::string needle = "\n" + sample + " ";
  size_t pos = text.rfind(needle);
  if (pos != std::string::npos) {
    pos += 1;
  } else if (text.compare(0, sample.size() + 1, sample + " ") == 0) {
    pos = 0;
  }
  EXPECT_NE(pos, std::string::npos) << sample << " missing from:\n" << text;
  if (pos == std::string::npos) return 0.0;
  return std::stod(text.substr(pos + sample.size() + 1));
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndMonotone) {
  LatencyRecorder recorder;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 50'000; ++i) {
    recorder.Record(static_cast<int64_t>(rng() % 2'000'000));
  }
  PrometheusWriter writer;
  writer.Histogram("lat_us", "latencies", recorder);
  const std::string text = writer.Take();

  const auto buckets = ParseBuckets(text, "lat_us");
  ASSERT_GE(buckets.size(), 2u);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i - 1].first, buckets[i].first)
        << "le edges out of order at " << i;
    EXPECT_LE(buckets[i - 1].second, buckets[i].second)
        << "cumulative counts regressed at le=" << buckets[i].first;
  }
  // The mandatory +Inf bucket closes the family and equals _count.
  EXPECT_TRUE(std::isinf(buckets.back().first));
  EXPECT_EQ(buckets.back().second, recorder.count());
  EXPECT_EQ(static_cast<uint64_t>(ParseGauge(text, "lat_us_count")),
            recorder.count());
  EXPECT_EQ(static_cast<int64_t>(ParseGauge(text, "lat_us_sum")),
            recorder.sum_us());
}

TEST(Prometheus, EmptyHistogramStillWellFormed) {
  LatencyRecorder recorder;
  PrometheusWriter writer;
  writer.Histogram("empty_us", "nothing", recorder);
  const std::string text = writer.Take();
  const auto buckets = ParseBuckets(text, "empty_us");
  ASSERT_EQ(buckets.size(), 1u);  // just +Inf
  EXPECT_TRUE(std::isinf(buckets[0].first));
  EXPECT_EQ(buckets[0].second, 0u);
  EXPECT_EQ(ParseGauge(text, "empty_us_count"), 0.0);
}

/// The Percentile <= max invariant must survive rendering: the quantile
/// gauges /metrics exposes can never exceed the rendered max gauge.
TEST(Prometheus, QuantileGaugesNeverExceedMaxThroughMetricsOutput) {
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.run_finished = true;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20'000; ++i) {
    snap.final_run.stats.latency.Record(
        static_cast<int64_t>(rng() % 5'000'000));
  }
  const std::string text = RenderPrometheusMetrics(snap);

  const double max_us = ParseGauge(text, "oij_result_latency_max_us");
  EXPECT_EQ(static_cast<int64_t>(max_us),
            snap.final_run.stats.latency.max_us());
  for (const char* q : {"0.5", "0.9", "0.99"}) {
    const double v = ParseGauge(
        text, std::string("oij_result_latency_quantile_us{quantile=\"") + q +
                  "\"}");
    EXPECT_LE(v, max_us) << "quantile " << q;
    EXPECT_GE(v, 0.0);
  }

  // The full histogram rides along and stays monotone end-to-end.
  const auto buckets = ParseBuckets(text, "oij_result_latency_us");
  ASSERT_GE(buckets.size(), 2u);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i - 1].second, buckets[i].second);
  }
  EXPECT_EQ(buckets.back().second, snap.final_run.stats.latency.count());
}

TEST(Prometheus, ArenaGaugesRenderFromProgressSample) {
  // The allocator observability chain: WatchdogSample arena fields must
  // surface as the four memory gauges on the /metrics page.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.run_finished = false;
  snap.progress.mem.arena_reserved_bytes = 4 * 64 * 1024;
  snap.progress.mem.arena_live_nodes = 1234;
  snap.progress.mem.ebr_retired_backlog = 56;
  snap.progress.mem.arena_slab_recycles = 7;
  const std::string text = RenderPrometheusMetrics(snap);

  EXPECT_EQ(ParseGauge(text, "oij_arena_bytes"), 4.0 * 64 * 1024);
  EXPECT_EQ(ParseGauge(text, "oij_arena_live_nodes"), 1234.0);
  EXPECT_EQ(ParseGauge(text, "oij_ebr_retired_backlog"), 56.0);
  EXPECT_EQ(ParseGauge(text, "oij_arena_slab_recycles_total"), 7.0);
}

TEST(Prometheus, SnapshotAgeGaugeOmittedUntilFirstSnapshot) {
  // Regression: before the first snapshot commits the engine reports the
  // -1.0 "never" sentinel, and /metrics used to export it verbatim — a
  // negative age that poisons `oij_snapshot_age_seconds > X` alert rules.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.wal.enabled = true;
  snap.snapshot_age_seconds = -1.0;
  std::string text = RenderPrometheusMetrics(snap);
  EXPECT_EQ(text.find("oij_snapshot_age_seconds"), std::string::npos)
      << "sentinel leaked as a sample:\n"
      << text;
  // The rest of the WAL family still renders without it.
  EXPECT_NE(text.find("oij_wal_appended_records_total"), std::string::npos);
  EXPECT_NE(text.find("oij_snapshots_total"), std::string::npos);

  // Zero is a real age (a snapshot committed within the last second) and
  // must render; so must any positive age.
  snap.snapshot_age_seconds = 0.0;
  text = RenderPrometheusMetrics(snap);
  EXPECT_EQ(ParseGauge(text, "oij_snapshot_age_seconds"), 0.0);
  snap.snapshot_age_seconds = 12.5;
  text = RenderPrometheusMetrics(snap);
  EXPECT_EQ(ParseGauge(text, "oij_snapshot_age_seconds"), 12.5);
}

TEST(Statz, SnapshotAgeIsNullUntilFirstSnapshot) {
  // The /statz side of the same fix: the sentinel renders as JSON null,
  // never as -1, and becomes a number once a snapshot exists.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.wal.enabled = true;
  snap.snapshot_age_seconds = -1.0;
  std::string text = RenderStatzJson(snap);
  EXPECT_NE(text.find("\"snapshot_age_seconds\":null"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("-1"), std::string::npos) << text;

  snap.snapshot_age_seconds = 3.0;
  text = RenderStatzJson(snap);
  EXPECT_NE(text.find("\"snapshot_age_seconds\":3"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("null"), std::string::npos) << text;
}

TEST(Statz, ArraysAreCommaSeparatedAndMemoryObjectRenders) {
  // Regression: JsonOut used to omit the separator between bare array
  // elements, so multi-joiner queue_depths rendered as [123] instead of
  // [1,2,3] — invalid JSON that only showed up with >1 joiner.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.run_finished = true;
  snap.progress.queue_depths = {1, 2, 3};
  snap.progress.consumed = {10, 20, 30};
  snap.progress.mem.arena_reserved_bytes = 65536;
  snap.progress.mem.pooled = true;
  snap.final_run.stats.warnings = {"w1", "w2"};
  const std::string text = RenderStatzJson(snap);

  EXPECT_NE(text.find("\"queue_depths\":[1,2,3]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"consumed\":[10,20,30]"), std::string::npos);
  EXPECT_NE(text.find("\"warnings\":[\"w1\",\"w2\"]"), std::string::npos);
  EXPECT_NE(text.find("\"memory\":{\"arena_bytes\":65536"),
            std::string::npos);
  EXPECT_NE(text.find("\"pooled\":true,\"arena_reserved_bytes\":65536"),
            std::string::npos);

  // Structural sanity: brackets balance and never go negative.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at offset " << i;
  }
  EXPECT_EQ(depth, 0);
}

TEST(Prometheus, MetricsPageIsParseable) {
  // Every non-comment line must be `name{labels} value` or `name value`,
  // and every referenced family must have HELP and TYPE headers.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "wl\"with\\odd\nchars";
  snap.counters.tuples_in = 123;
  snap.progress.queue_depths = {1, 2, 3};
  snap.progress.consumed = {10, 20, 30};
  snap.run_finished = false;
  const std::string text = RenderPrometheusMetrics(snap);

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_NO_THROW((void)std::stod(value)) << line;
    std::string name = line.substr(0, space);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << "bad metric name char in " << line;
    }
  }
  // Live progress gauges carry per-joiner labels.
  EXPECT_NE(text.find("oij_joiner_queue_depth{joiner=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("oij_joiner_consumed_total{joiner=\"2\"} 30"),
            std::string::npos);
}

}  // namespace
}  // namespace oij
