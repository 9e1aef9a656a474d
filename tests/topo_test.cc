// NUMA topology detection and placement tests (src/topo/, DESIGN.md §5i):
//
//   * cpulist parsing: singles, ranges, sparse mixes, whitespace, and
//     malformed inputs;
//   * DetectFrom over fake sysfs trees: 1-node, 2-node with distances,
//     sparse node ids via `online`, offline CPUs / restrictive cpusets
//     shrinking or dropping nodes, and malformed trees degrading to the
//     single-node fallback;
//   * Detect() honoring OIJ_FAKE_SYSFS;
//   * PlanPlacement properties: proportional contiguous teams, strict
//     no-op on single-node auto, explicit override maps (including -1
//     holes), flush order grouped by node;
//   * EngineOptions::Validate rejecting malformed explicit maps;
//   * differential exactness: {key-oij, scale-oij} × late policies ×
//     {numa auto, numa off} under a fake 2-node machine must agree with
//     the policy-aware reference oracle exactly — placement moves
//     threads and pages, never results — plus a multi-query catalog run;
//   * /statz regression: the per-node arrays render with valid JSON
//     separators (cf. the run-summary joiner-array separator bug).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "core/engine_factory.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "server/admin.h"
#include "stream/generator.h"
#include "topo/topology.h"

namespace oij {
namespace {

// ------------------------------------------------------------ fixtures

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/oij_topo_test_XXXXXX";
    char* p = mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path_ = p;
  }
  ~TempDir() {
    if (path_.empty()) return;
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

/// Creates `<root>/node<id>/cpulist` (and optionally `distance`).
void WriteFakeNode(const std::string& root, int id,
                   const std::string& cpulist,
                   const std::string& distance = "") {
  const std::string dir = root + "/node" + std::to_string(id);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
  WriteFile(dir + "/cpulist", cpulist);
  if (!distance.empty()) WriteFile(dir + "/distance", distance);
}

/// Sets an environment variable for the scope, restoring the previous
/// value (or unsetting) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

// ------------------------------------------------------ ParseCpuList

TEST(ParseCpuListTest, SinglesRangesAndMixes) {
  std::vector<int> cpus;
  ASSERT_TRUE(ParseCpuList("0-3", &cpus).ok());
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3}));

  ASSERT_TRUE(ParseCpuList("0,2,4-6", &cpus).ok());
  EXPECT_EQ(cpus, (std::vector<int>{0, 2, 4, 5, 6}));

  ASSERT_TRUE(ParseCpuList("7", &cpus).ok());
  EXPECT_EQ(cpus, (std::vector<int>{7}));

  // Kernel files end with a newline; internal whitespace is tolerated.
  ASSERT_TRUE(ParseCpuList(" 1-3 , 8 \n", &cpus).ok());
  EXPECT_EQ(cpus, (std::vector<int>{1, 2, 3, 8}));

  // Overlaps dedupe, output is sorted.
  ASSERT_TRUE(ParseCpuList("4-6,5,0", &cpus).ok());
  EXPECT_EQ(cpus, (std::vector<int>{0, 4, 5, 6}));

  // Empty is valid (a node with no CPUs).
  ASSERT_TRUE(ParseCpuList("", &cpus).ok());
  EXPECT_TRUE(cpus.empty());
  ASSERT_TRUE(ParseCpuList("\n", &cpus).ok());
  EXPECT_TRUE(cpus.empty());
}

TEST(ParseCpuListTest, MalformedInputsAreErrors) {
  std::vector<int> cpus;
  EXPECT_FALSE(ParseCpuList("3-1", &cpus).ok());   // inverted range
  EXPECT_FALSE(ParseCpuList("a-b", &cpus).ok());   // not a number
  EXPECT_FALSE(ParseCpuList("1,,2", &cpus).ok());  // empty element
  EXPECT_FALSE(ParseCpuList("1;2", &cpus).ok());   // wrong separator
  EXPECT_FALSE(ParseCpuList("1-", &cpus).ok());    // dangling range
  EXPECT_FALSE(ParseCpuList("-3", &cpus).ok());    // leading dash
  EXPECT_FALSE(ParseCpuList("99999999999", &cpus).ok());  // implausible
}

// --------------------------------------------------------- DetectFrom

TEST(TopologyTest, SingleNodeTree) {
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0-3\n");
  const Topology t = Topology::DetectFrom(dir.path(), {});
  EXPECT_FALSE(t.fallback());
  ASSERT_EQ(t.num_nodes(), 1u);
  EXPECT_TRUE(t.single_node());
  EXPECT_EQ(t.nodes()[0].id, 0);
  EXPECT_EQ(t.nodes()[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(t.num_cpus(), 4);
}

TEST(TopologyTest, TwoNodeTreeWithDistances) {
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0-3\n", "10 21\n");
  WriteFakeNode(dir.path(), 1, "4-7\n", "21 10\n");
  WriteFile(dir.path() + "/online", "0-1\n");
  const Topology t = Topology::DetectFrom(dir.path(), {});
  EXPECT_FALSE(t.fallback());
  ASSERT_EQ(t.num_nodes(), 2u);
  EXPECT_FALSE(t.single_node());
  EXPECT_EQ(t.nodes()[1].cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(t.NodeOfCpu(2), 0);
  EXPECT_EQ(t.NodeOfCpu(6), 1);
  EXPECT_EQ(t.NodeOfCpu(99), -1);
  EXPECT_EQ(t.Distance(0, 0), 10);
  EXPECT_EQ(t.Distance(0, 1), 21);
  EXPECT_EQ(t.Distance(1, 0), 21);
}

TEST(TopologyTest, SparseNodeIdsAndSparseCpulists) {
  // node1 is missing entirely (offlined socket): ids stay sparse and the
  // ordinals compact.
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0,2,4-6\n");
  WriteFakeNode(dir.path(), 2, "1,3\n");
  WriteFile(dir.path() + "/online", "0,2\n");
  const Topology t = Topology::DetectFrom(dir.path(), {});
  EXPECT_FALSE(t.fallback());
  ASSERT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.nodes()[0].id, 0);
  EXPECT_EQ(t.nodes()[1].id, 2);
  EXPECT_EQ(t.nodes()[0].cpus, (std::vector<int>{0, 2, 4, 5, 6}));
  EXPECT_EQ(t.NodeOfCpu(3), 1);  // ordinal, not OS id
}

TEST(TopologyTest, RestrictiveCpusetShrinksAndDropsNodes) {
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0-3\n");
  WriteFakeNode(dir.path(), 1, "4-7\n");
  // The container may only run on CPUs 0-1: node1 empties out and is
  // dropped; the result is a genuine single-node view, not a fallback.
  const Topology t = Topology::DetectFrom(dir.path(), {0, 1});
  EXPECT_FALSE(t.fallback());
  ASSERT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.nodes()[0].cpus, (std::vector<int>{0, 1}));

  // A cpuset straddling both sockets keeps both, shrunk.
  const Topology both = Topology::DetectFrom(dir.path(), {1, 5});
  ASSERT_EQ(both.num_nodes(), 2u);
  EXPECT_EQ(both.nodes()[0].cpus, (std::vector<int>{1}));
  EXPECT_EQ(both.nodes()[1].cpus, (std::vector<int>{5}));
}

TEST(TopologyTest, MalformedTreesFallBackToSingleNode) {
  {
    TempDir dir;
    WriteFakeNode(dir.path(), 0, "3-1\n");  // inverted range
    const Topology t = Topology::DetectFrom(dir.path(), {0, 1, 2});
    EXPECT_TRUE(t.fallback());
    ASSERT_EQ(t.num_nodes(), 1u);
    EXPECT_EQ(t.nodes()[0].cpus, (std::vector<int>{0, 1, 2}));
  }
  {
    TempDir dir;  // no node directories at all
    const Topology t = Topology::DetectFrom(dir.path(), {0});
    EXPECT_TRUE(t.fallback());
    EXPECT_EQ(t.num_nodes(), 1u);
  }
  {
    // node dir exists but the cpulist file is missing.
    TempDir dir;
    ASSERT_EQ(::mkdir((dir.path() + "/node0").c_str(), 0755), 0);
    const Topology t = Topology::DetectFrom(dir.path(), {0});
    EXPECT_TRUE(t.fallback());
  }
  // Nonexistent root.
  const Topology t = Topology::DetectFrom("/no/such/dir", {0});
  EXPECT_TRUE(t.fallback());
  EXPECT_GE(t.num_cpus(), 1);
}

TEST(TopologyTest, IncompleteDistanceFilesAreDropped) {
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0\n", "10\n");  // missing the remote entry
  WriteFakeNode(dir.path(), 1, "1\n", "21 10\n");
  const Topology t = Topology::DetectFrom(dir.path(), {});
  ASSERT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.Distance(0, 1), 0);  // hint unavailable, not garbage
}

TEST(TopologyTest, DetectHonorsFakeSysfsEnv) {
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0\n");
  WriteFakeNode(dir.path(), 1, "1\n");
  {
    ScopedEnv env("OIJ_FAKE_SYSFS", dir.path());
    const Topology t = Topology::Detect();
    // The fake tree defines the whole machine — no cpuset intersection —
    // so a 2-node fake survives a 1-CPU host.
    EXPECT_FALSE(t.fallback());
    ASSERT_EQ(t.num_nodes(), 2u);
    EXPECT_EQ(t.nodes()[1].cpus, (std::vector<int>{1}));
  }
  // Without the override, real detection must still produce something
  // sane (>= 1 node covering >= 1 CPU) on any machine this runs on.
  const Topology real = Topology::Detect();
  EXPECT_GE(real.num_nodes(), 1u);
  EXPECT_GE(real.num_cpus(), 1);
}

// ------------------------------------------------------ PlanPlacement

TEST(PlanPlacementTest, AutoOnSingleNodeIsStrictNoOp) {
  const Topology t = Topology::SingleNode(8);
  const PlacementPlan plan = PlanPlacement(t, 4, NumaOptions{});
  EXPECT_FALSE(plan.active);
  EXPECT_EQ(plan.num_nodes, 1u);
  EXPECT_EQ(plan.joiner_cpu, (std::vector<int>{-1, -1, -1, -1}));
  EXPECT_EQ(plan.flush_order, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(plan.aux_cpu, -1);
}

TEST(PlanPlacementTest, OffNeverActivates) {
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0-3\n");
  WriteFakeNode(dir.path(), 1, "4-7\n");
  const Topology t = Topology::DetectFrom(dir.path(), {});
  NumaOptions numa;
  numa.mode = NumaMode::kOff;
  const PlacementPlan plan = PlanPlacement(t, 6, numa);
  EXPECT_FALSE(plan.active);
  for (int cpu : plan.joiner_cpu) EXPECT_EQ(cpu, -1);
}

TEST(PlanPlacementTest, ProportionalContiguousTeams) {
  // 4 + 2 CPUs, 6 joiners: teams of 4 and 2, contiguous joiner ranges,
  // CPUs round-robined within each node.
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0-3\n");
  WriteFakeNode(dir.path(), 1, "4-5\n");
  const Topology t = Topology::DetectFrom(dir.path(), {});
  const PlacementPlan plan = PlanPlacement(t, 6, NumaOptions{});
  EXPECT_TRUE(plan.active);
  EXPECT_EQ(plan.num_nodes, 2u);
  EXPECT_EQ(plan.joiner_node,
            (std::vector<uint32_t>{0, 0, 0, 0, 1, 1}));
  EXPECT_EQ(plan.joiner_cpu, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  // Contiguous teams make the per-socket flush order the identity.
  EXPECT_EQ(plan.flush_order, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(plan.aux_cpu, 0);
  EXPECT_EQ(plan.node_ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.OsNodeOfJoiner(5), 1);
}

TEST(PlanPlacementTest, LargestRemainderTiesAreDeterministic) {
  // Two equal nodes, 5 joiners: the 0.5-remainder tie goes to the lower
  // ordinal, and every joiner's CPU belongs to its own node.
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0-1\n");
  WriteFakeNode(dir.path(), 1, "2-3\n");
  const Topology t = Topology::DetectFrom(dir.path(), {});
  const PlacementPlan plan = PlanPlacement(t, 5, NumaOptions{});
  EXPECT_EQ(plan.joiner_node, (std::vector<uint32_t>{0, 0, 0, 1, 1}));
  for (uint32_t j = 0; j < 5; ++j) {
    const auto& cpus = t.nodes()[plan.joiner_node[j]].cpus;
    EXPECT_TRUE(std::find(cpus.begin(), cpus.end(), plan.joiner_cpu[j]) !=
                cpus.end())
        << "joiner " << j << " pinned off its own node";
  }
  // More joiners than CPUs: everyone still gets a CPU (oversubscribed
  // round-robin), teams stay proportional.
  const PlacementPlan big = PlanPlacement(t, 10, NumaOptions{});
  EXPECT_TRUE(big.active);
  for (uint32_t j = 0; j < 10; ++j) EXPECT_GE(big.joiner_cpu[j], 0);
}

TEST(PlanPlacementTest, ExplicitMapOverridesAndGroupsFlushOrder) {
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0,2\n");
  WriteFakeNode(dir.path(), 1, "1,3\n");
  const Topology t = Topology::DetectFrom(dir.path(), {});
  NumaOptions numa;
  numa.explicit_cpus = {1, 0, 3, -1};  // -1 = leave joiner 3 floating
  const PlacementPlan plan = PlanPlacement(t, 4, numa);
  EXPECT_TRUE(plan.active);
  EXPECT_EQ(plan.joiner_cpu, (std::vector<int>{1, 0, 3, -1}));
  EXPECT_EQ(plan.joiner_node, (std::vector<uint32_t>{1, 0, 1, 0}));
  // Flush order groups joiners by node (stable within a node).
  EXPECT_EQ(plan.flush_order, (std::vector<uint32_t>{1, 3, 0, 2}));
  EXPECT_EQ(plan.aux_cpu, 1);  // first explicitly pinned CPU

  // An explicit map forces placement active even on one node — that is
  // how a single-node CI host exercises the pinning machinery.
  const Topology flat = Topology::SingleNode(2);
  NumaOptions forced;
  forced.explicit_cpus = {0, 1};
  EXPECT_TRUE(PlanPlacement(flat, 2, forced).active);

  // ...but kOff still wins over an explicit map.
  NumaOptions off = forced;
  off.mode = NumaMode::kOff;
  EXPECT_FALSE(PlanPlacement(flat, 2, off).active);
}

TEST(PlanPlacementTest, ValidateRejectsMalformedExplicitMaps) {
  EngineOptions options;
  options.num_joiners = 4;
  options.numa.explicit_cpus = {0, 1};  // wrong size
  EXPECT_FALSE(options.Validate().ok());
  options.numa.explicit_cpus = {0, 1, 2, -2};  // -2 is not a CPU
  EXPECT_FALSE(options.Validate().ok());
  options.numa.explicit_cpus = {0, 1, 2, -1};
  EXPECT_TRUE(options.Validate().ok());
  options.numa.explicit_cpus.clear();  // empty = derive from topology
  EXPECT_TRUE(options.Validate().ok());
}

TEST(PlanPlacementTest, BindMemoryToBogusNodeFailsGracefully) {
  int dummy = 0;
  // Node far beyond anything real: must return false, never crash.
  EXPECT_FALSE(TryBindMemoryToNode(&dummy, sizeof(dummy), 100000));
  EXPECT_FALSE(TryBindMemoryToNode(nullptr, 64, 0));
  EXPECT_FALSE(TryBindMemoryToNode(&dummy, 0, 0));
}

// ----------------------------------- differential: auto == off exactly

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

struct EngineRun {
  std::vector<ReferenceResult> results;
  EngineStats stats;
};

EngineRun RunOverEvents(EngineKind kind,
                        const std::vector<StreamEvent>& events,
                        const QuerySpec& spec, EngineOptions options,
                        uint64_t wm_every) {
  CollectingSink sink;
  auto engine = CreateEngine(kind, spec, options, &sink);
  EXPECT_TRUE(engine->Start().ok());
  WatermarkTracker tracker(spec.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % wm_every == 0) engine->SignalWatermark(tracker.watermark());
  }
  EngineRun run;
  run.stats = engine->Finish();
  for (const JoinResult& r : sink.TakeResults()) {
    run.results.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&run.results);
  return run;
}

/// Result equality at the repo's differential bar: cardinality, bases,
/// and match counts exact; aggregates NaN-aware within 1e-6 (parallel
/// summation order is schedule-dependent to the last ulp).
void ExpectResultsIdentical(const std::vector<ReferenceResult>& got,
                            const std::vector<ReferenceResult>& want,
                            const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label << ": result cardinality";
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const bool agg_ok =
        std::isnan(want[i].aggregate)
            ? std::isnan(got[i].aggregate)
            : std::abs(got[i].aggregate - want[i].aggregate) < 1e-6;
    if (got[i].base != want[i].base ||
        got[i].match_count != want[i].match_count || !agg_ok) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << label << ": result " << i
                      << " differs: base ts=" << got[i].base.ts
                      << " key=" << got[i].base.key
                      << " got(count=" << got[i].match_count
                      << ", agg=" << got[i].aggregate
                      << ") want(count=" << want[i].match_count
                      << ", agg=" << want[i].aggregate << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

WorkloadSpec TestWorkload(uint64_t seed, uint64_t keys = 8) {
  WorkloadSpec w;
  w.num_keys = keys;
  w.window = IntervalWindow{400, 0};
  w.lateness_us = 50;
  w.disorder_bound_us = 50;
  w.event_rate_per_sec = 1'000'000;  // integer us spacing: unique ts
  w.total_tuples = 20'000;
  w.probe_fraction = 0.5;
  w.seed = seed;
  return w;
}

QuerySpec TestQuery(LatePolicy policy = LatePolicy::kBestEffortJoin) {
  QuerySpec q;
  q.window = IntervalWindow{400, 0};
  q.lateness_us = 50;
  q.agg = AggKind::kSum;
  q.emit_mode = EmitMode::kWatermark;
  q.late_policy = policy;
  return q;
}

constexpr uint64_t kWmEvery = 512;

/// Runs every differential case under a fake 2-node machine (node0 owns
/// CPU 0, node1 owns CPU 1) so `numa auto` resolves an *active* plan
/// even on a single-socket CI host; the pins land where they can.
class NumaDifferentialTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, LatePolicy>> {
 protected:
  void SetUp() override {
    WriteFakeNode(dir_.path(), 0, "0\n");
    WriteFakeNode(dir_.path(), 1, "1\n");
    WriteFile(dir_.path() + "/online", "0-1\n");
    env_ = std::make_unique<ScopedEnv>("OIJ_FAKE_SYSFS", dir_.path());
  }
  void TearDown() override { env_.reset(); }

 private:
  TempDir dir_;
  std::unique_ptr<ScopedEnv> env_;
};

TEST_P(NumaDifferentialTest, AutoEqualsOffEqualsOracle) {
  const auto [kind, policy] = GetParam();
  WorkloadSpec w = TestWorkload(401);
  if (policy != LatePolicy::kBestEffortJoin) {
    w.late_flood_fraction = 0.10;  // give the lateness gate work
    w.late_flood_extra_us = 60;
  }
  const auto events = Generate(w);
  const QuerySpec q = TestQuery(policy);
  auto expected = ReferenceJoinWithPolicy(events, q, kWmEvery);
  SortResults(&expected);

  EngineOptions auto_numa;
  auto_numa.num_joiners = 3;
  EngineOptions off = auto_numa;
  off.numa.mode = NumaMode::kOff;

  const auto run_auto = RunOverEvents(kind, events, q, auto_numa, kWmEvery);
  const auto run_off = RunOverEvents(kind, events, q, off, kWmEvery);

  const std::string label = std::string(EngineKindName(kind)) + "/" +
                            std::string(LatePolicyName(policy));
  ExpectResultsIdentical(run_auto.results, expected,
                         label + "/auto-vs-oracle");
  ExpectResultsIdentical(run_off.results, expected,
                         label + "/off-vs-oracle");
  ExpectResultsIdentical(run_auto.results, run_off.results,
                         label + "/auto-vs-off");

  // The auto run must actually have placed: 2 fake nodes, every joiner
  // mapped, pins recorded. The off run must be a flat pool.
  EXPECT_TRUE(run_auto.stats.numa.active) << label;
  EXPECT_EQ(run_auto.stats.numa.nodes, 2u) << label;
  ASSERT_EQ(run_auto.stats.numa.pin_cpus.size(), 3u) << label;
  ASSERT_EQ(run_auto.stats.numa.joiner_node.size(), 3u) << label;
  for (uint32_t node : run_auto.stats.numa.joiner_node) {
    EXPECT_LT(node, 2u) << label;
  }
  EXPECT_FALSE(run_off.stats.numa.active) << label;
  EXPECT_TRUE(run_off.stats.numa.pin_cpus.empty()) << label;
}

INSTANTIATE_TEST_SUITE_P(
    EnginesTimesPolicies, NumaDifferentialTest,
    ::testing::Combine(::testing::Values(EngineKind::kKeyOij,
                                         EngineKind::kScaleOij),
                       ::testing::Values(LatePolicy::kBestEffortJoin,
                                         LatePolicy::kDropAndCount,
                                         LatePolicy::kSideChannel)),
    [](const auto& info) {
      std::string name =
          std::string(EngineKindName(std::get<0>(info.param))) + "_" +
          std::string(LatePolicyName(std::get<1>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(NumaEngineTest, PerNodeArenaGaugesSplitWithoutSlabWalks) {
  // Scale-OIJ with pooled arenas under a fake 2-node machine: the
  // per-node gauges must cover every node ordinal and sum to the
  // aggregate MemStats (the split regroups per-arena counters, it never
  // re-walks slabs, so the totals must agree exactly).
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0\n");
  WriteFakeNode(dir.path(), 1, "1\n");
  ScopedEnv env("OIJ_FAKE_SYSFS", dir.path());

  const auto events = Generate(TestWorkload(411));
  const QuerySpec q = TestQuery();
  EngineOptions options;
  options.num_joiners = 4;
  const auto run =
      RunOverEvents(EngineKind::kScaleOij, events, q, options, kWmEvery);
  ASSERT_TRUE(run.stats.numa.active);
  ASSERT_EQ(run.stats.numa.per_node_arena_bytes.size(), 2u);
  ASSERT_EQ(run.stats.numa.per_node_arena_live_nodes.size(), 2u);
  uint64_t bytes = 0;
  for (uint64_t v : run.stats.numa.per_node_arena_bytes) bytes += v;
  EXPECT_EQ(bytes, run.stats.mem.arena_reserved_bytes);
  EXPECT_GT(bytes, 0u);
}

TEST(NumaEngineTest, ExplicitMapRunsExactOnRealHost) {
  // No fake sysfs: a real (possibly 1-CPU) machine. An explicit map
  // forces the placement machinery on — invalid pins no-op, mbind to a
  // real node 0 may or may not succeed — and results stay exact.
  const auto events = Generate(TestWorkload(421));
  const QuerySpec q = TestQuery();
  auto expected = ReferenceJoinWithPolicy(events, q, kWmEvery);
  SortResults(&expected);
  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    EngineOptions options;
    options.num_joiners = 2;
    options.numa.explicit_cpus = {0, -1};
    const auto run = RunOverEvents(kind, events, q, options, kWmEvery);
    const std::string label(EngineKindName(kind));
    ExpectResultsIdentical(run.results, expected, label + "/explicit");
    EXPECT_TRUE(run.stats.numa.active) << label;
    EXPECT_EQ(run.stats.numa.pin_cpus, (std::vector<int>{0, -1})) << label;
  }
}

TEST(NumaEngineTest, MultiQueryCatalogAutoVsOffAgree) {
  TempDir dir;
  WriteFakeNode(dir.path(), 0, "0\n");
  WriteFakeNode(dir.path(), 1, "1\n");
  ScopedEnv env("OIJ_FAKE_SYSFS", dir.path());

  const auto events = Generate(TestWorkload(431, /*keys=*/12));
  const QuerySpec primary = TestQuery();
  QuerySpec narrow = TestQuery(LatePolicy::kDropAndCount);
  narrow.window = IntervalWindow{150, 0};
  narrow.agg = AggKind::kMin;

  for (EngineKind kind : {EngineKind::kKeyOij, EngineKind::kScaleOij}) {
    std::map<uint32_t, std::vector<ReferenceResult>> by_query_auto;
    std::map<uint32_t, std::vector<ReferenceResult>> by_query_off;
    for (bool numa_on : {true, false}) {
      EngineOptions options;
      options.num_joiners = 3;
      options.numa.mode = numa_on ? NumaMode::kAuto : NumaMode::kOff;
      CollectingSink sink;
      auto engine = CreateEngine(kind, primary, options, &sink);
      ASSERT_TRUE(engine->Start().ok());
      ASSERT_TRUE(engine->AddQuery("narrow", narrow).ok());
      WatermarkTracker tracker(primary.lateness_us);
      uint64_t n = 0;
      for (const StreamEvent& ev : events) {
        tracker.Observe(ev.tuple.ts);
        engine->Push(ev, MonotonicNowUs());
        if (++n % kWmEvery == 0) {
          engine->SignalWatermark(tracker.watermark());
        }
      }
      const EngineStats stats = engine->Finish();
      EXPECT_EQ(stats.numa.active, numa_on) << EngineKindName(kind);
      auto& by_query = numa_on ? by_query_auto : by_query_off;
      for (const JoinResult& r : sink.TakeResults()) {
        by_query[r.query].push_back({r.base, r.aggregate, r.match_count});
      }
      for (auto& [ord, results] : by_query) SortResults(&results);
    }
    ASSERT_EQ(by_query_auto.size(), 2u) << EngineKindName(kind);
    for (const auto& [ord, results] : by_query_auto) {
      ExpectResultsIdentical(results, by_query_off[ord],
                             std::string(EngineKindName(kind)) + "/query" +
                                 std::to_string(ord));
    }
  }
}

// ------------------------------------------- /statz rendering regression

TEST(NumaStatzTest, PerNodeArraysRenderWithValidSeparators) {
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "test";
  snap.progress.numa.active = true;
  snap.progress.numa.nodes = 2;
  snap.progress.numa.pin_cpus = {0, 1, -1};
  snap.progress.numa.joiner_node = {0, 1, 0};
  snap.progress.numa.per_node_arena_bytes = {65536, 131072};
  snap.progress.numa.per_node_arena_live_nodes = {10, 20};
  snap.progress.numa.cross_replications = 3;
  snap.progress.numa.cross_dispatches = 7;

  const std::string json = RenderStatzJson(snap);

  // Exact separator check for the whole numa object: a missing comma
  // between array elements (the run-summary joiner-array bug) or an
  // extra trailing comma would break this substring.
  EXPECT_NE(json.find("\"numa\":{\"active\":true,\"nodes\":2,"
                      "\"pin_cpus\":[0,1,-1],\"joiner_node\":[0,1,0],"
                      "\"per_node_arena_bytes\":[65536,131072],"
                      "\"per_node_arena_live_nodes\":[10,20],"
                      "\"cross_replications\":3,\"cross_dispatches\":7}"),
            std::string::npos)
      << json;

  // Structural sanity: balanced braces/brackets outside string literals.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);

  // The inactive single-node shape renders too (arrays empty, active
  // false) — the admin page never branches into invalid JSON.
  AdminSnapshot flat;
  flat.engine_name = "key-oij";
  const std::string flat_json = RenderStatzJson(flat);
  EXPECT_NE(flat_json.find("\"numa\":{\"active\":false,\"nodes\":1,"
                           "\"pin_cpus\":[],\"joiner_node\":[],"
                           "\"per_node_arena_bytes\":[],"
                           "\"per_node_arena_live_nodes\":[],"
                           "\"cross_replications\":0,"
                           "\"cross_dispatches\":0}"),
            std::string::npos)
      << flat_json;
}

TEST(NumaStatzTest, PrometheusExportsPerNodeGauges) {
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "test";
  snap.progress.numa.active = true;
  snap.progress.numa.nodes = 2;
  snap.progress.numa.pin_cpus = {0, 1};
  snap.progress.numa.joiner_node = {0, 1};
  snap.progress.numa.per_node_arena_bytes = {4096, 8192};
  snap.progress.numa.per_node_arena_live_nodes = {5, 6};
  snap.progress.numa.cross_replications = 2;
  snap.progress.numa.cross_dispatches = 9;

  const std::string text = RenderPrometheusMetrics(snap);
  EXPECT_NE(text.find("oij_numa_nodes 2"), std::string::npos);
  EXPECT_NE(text.find("oij_numa_active 1"), std::string::npos);
  EXPECT_NE(text.find("oij_numa_joiner_cpu{joiner=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("oij_numa_node_arena_bytes{node=\"0\"} 4096"),
            std::string::npos);
  EXPECT_NE(text.find("oij_numa_node_arena_bytes{node=\"1\"} 8192"),
            std::string::npos);
  EXPECT_NE(text.find("oij_numa_node_arena_live_nodes{node=\"1\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("oij_numa_cross_replications_total 2"),
            std::string::npos);
  EXPECT_NE(text.find("oij_numa_cross_dispatches_total 9"),
            std::string::npos);

  // Flat machine: the always-on gauges still export; the per-node and
  // per-joiner series are absent.
  AdminSnapshot flat;
  flat.engine_name = "key-oij";
  const std::string flat_text = RenderPrometheusMetrics(flat);
  EXPECT_NE(flat_text.find("oij_numa_nodes 1"), std::string::npos);
  EXPECT_NE(flat_text.find("oij_numa_active 0"), std::string::npos);
  EXPECT_EQ(flat_text.find("oij_numa_joiner_cpu"), std::string::npos);
  EXPECT_EQ(flat_text.find("oij_numa_node_arena_bytes"),
            std::string::npos);
}

}  // namespace
}  // namespace oij
