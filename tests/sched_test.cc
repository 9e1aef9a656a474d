#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <thread>

#include "common/random.h"
#include "sched/load_stats.h"
#include "sched/partition_table.h"
#include "sched/rebalancer.h"

namespace oij {
namespace {

// ------------------------------------------------------------- LoadStats

TEST(LoadStatsTest, AddAndDecay) {
  LoadStats stats(4);
  stats.Add(0, 10);
  stats.Add(1, 20);
  stats.Add(0);
  EXPECT_DOUBLE_EQ(stats.count(0), 11.0);
  EXPECT_DOUBLE_EQ(stats.count(1), 20.0);
  EXPECT_DOUBLE_EQ(stats.Total(), 31.0);
  stats.Decay(0.5);
  EXPECT_DOUBLE_EQ(stats.count(0), 5.5);
  EXPECT_DOUBLE_EQ(stats.Total(), 15.5);
}

// --------------------------------------------------------- PartitionTable

TEST(PartitionTableTest, StaticScheduleRoundRobins) {
  auto s = Schedule::MakeStatic(8, 3);
  EXPECT_EQ(s->num_partitions(), 8u);
  EXPECT_EQ(s->num_joiners, 3u);
  for (uint32_t p = 0; p < 8; ++p) {
    ASSERT_EQ(s->teams[p].size(), 1u);
    EXPECT_EQ(s->teams[p][0], p % 3);
  }
}

TEST(PartitionTableTest, PublishAndSnapshot) {
  PartitionTable table(8, 2);
  auto before = table.Snapshot();
  EXPECT_EQ(before->version, 0u);

  auto next = std::make_shared<Schedule>(*before);
  next->version = 1;
  next->teams[0].push_back(1);
  table.Publish(next);
  auto after = table.Snapshot();
  EXPECT_EQ(after->version, 1u);
  EXPECT_EQ(after->teams[0].size(), 2u);
}

TEST(PartitionTableTest, ConcurrentPublishAndSnapshot) {
  // One writer publishes versions 1..N while two readers snapshot. Each
  // reader must see versions that never go down, each with the contents
  // published alongside it (ThreadSanitizer checks the hand-off).
  constexpr uint64_t kVersions = 2000;
  PartitionTable table(8, 2);
  std::atomic<bool> done{false};
  bool ok[2] = {true, true};
  auto reader = [&](int r) {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto s = table.Snapshot();
      if (s->version < last || s->teams[0][0] != s->version % 2) ok[r] = false;
      last = s->version;
    }
  };
  std::thread r0(reader, 0);
  std::thread r1(reader, 1);
  for (uint64_t v = 1; v <= kVersions; ++v) {
    auto next = std::make_shared<Schedule>(*table.Snapshot());
    next->version = v;
    next->teams[0] = {static_cast<uint32_t>(v % 2)};
    table.Publish(std::move(next));
  }
  done.store(true, std::memory_order_release);
  r0.join();
  r1.join();
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
  EXPECT_EQ(table.Snapshot()->version, kVersions);
}

TEST(PartitionTableTest, PartitionOfIsStableAndInRange) {
  for (Key k = 0; k < 1000; ++k) {
    const uint32_t p = PartitionTable::PartitionOf(k, 64);
    EXPECT_LT(p, 64u);
    EXPECT_EQ(p, PartitionTable::PartitionOf(k, 64));
  }
}

TEST(PartitionTableTest, FewKeysLandOnFewPartitions) {
  // The premise of the skew problem: 5 keys can occupy at most 5
  // partitions regardless of the partition count.
  std::set<uint32_t> partitions;
  for (Key k = 0; k < 5; ++k) {
    partitions.insert(PartitionTable::PartitionOf(k, 256));
  }
  EXPECT_LE(partitions.size(), 5u);
}

// ------------------------------------------------------------ Rebalancer

TEST(RebalancerTest, WorkloadsFollowEquationThree) {
  // Partition 0 shared by joiners {0,1}: each gets half of its load.
  auto s = std::make_shared<Schedule>();
  s->num_joiners = 2;
  s->teams = {{0, 1}, {1}};
  LoadStats stats(2);
  stats.Add(0, 10);
  stats.Add(1, 4);
  const auto w = Rebalancer::JoinerWorkloads(*s, stats);
  EXPECT_DOUBLE_EQ(w[0], 5.0);
  EXPECT_DOUBLE_EQ(w[1], 9.0);
}

TEST(RebalancerTest, UnbalancednessZeroWhenEqual) {
  EXPECT_DOUBLE_EQ(Rebalancer::Unbalancedness({5, 5, 5, 5}), 0.0);
  EXPECT_GT(Rebalancer::Unbalancedness({10, 0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(Rebalancer::Unbalancedness({}), 0.0);
  EXPECT_DOUBLE_EQ(Rebalancer::Unbalancedness({0, 0}), 0.0);
}

TEST(RebalancerTest, SkewedSingleHotPartitionGetsReplicated) {
  // One scorching partition on joiner 0; three idle joiners.
  auto current = Schedule::MakeStatic(4, 4);
  LoadStats stats(4);
  stats.Add(0, 1000);
  stats.Add(1, 10);
  stats.Add(2, 10);
  stats.Add(3, 10);

  Rebalancer rebalancer;
  const auto before_w = Rebalancer::JoinerWorkloads(*current, stats);
  const double before = Rebalancer::Unbalancedness(before_w);

  auto next = rebalancer.Rebalance(current, &stats);
  ASSERT_NE(next, current) << "rebalancer left a skewed schedule unchanged";
  // The hot partition's team must have grown.
  EXPECT_GT(next->teams[0].size(), 1u);
  // Workloads re-estimated on un-decayed stats must be flatter.
  LoadStats fresh(4);
  fresh.Add(0, 1000);
  fresh.Add(1, 10);
  fresh.Add(2, 10);
  fresh.Add(3, 10);
  const double after =
      Rebalancer::Unbalancedness(Rebalancer::JoinerWorkloads(*next, fresh));
  EXPECT_LT(after, before);
  EXPECT_EQ(next->version, current->version + 1);
}

TEST(RebalancerTest, BalancedLoadIsAFixedPoint) {
  auto current = Schedule::MakeStatic(8, 4);
  LoadStats stats(8);
  for (uint32_t p = 0; p < 8; ++p) stats.Add(p, 100);
  Rebalancer rebalancer;
  auto next = rebalancer.Rebalance(current, &stats);
  EXPECT_EQ(next, current) << "balanced schedule should not change";
}

TEST(RebalancerTest, ReplicationOnlyNeverRemovesMembers) {
  // Correctness invariant: the old owner stays in every team (paper:
  // sharing, never transferring).
  auto current = Schedule::MakeStatic(16, 4);
  LoadStats stats(16);
  Rng rng(5);
  for (uint32_t p = 0; p < 16; ++p) {
    stats.Add(p, static_cast<double>(rng.NextBelow(1000)));
  }
  Rebalancer rebalancer;
  auto next = rebalancer.Rebalance(current, &stats);
  for (uint32_t p = 0; p < 16; ++p) {
    for (uint32_t j : current->teams[p]) {
      EXPECT_TRUE(std::find(next->teams[p].begin(), next->teams[p].end(),
                            j) != next->teams[p].end())
          << "joiner " << j << " dropped from partition " << p;
    }
  }
}

TEST(RebalancerTest, DecayAppliedAfterRebalance) {
  auto current = Schedule::MakeStatic(2, 2);
  LoadStats stats(2);
  stats.Add(0, 100);
  stats.Add(1, 100);
  RebalanceConfig config;
  config.decay = 0.25;
  Rebalancer rebalancer(config);
  rebalancer.Rebalance(current, &stats);
  EXPECT_DOUBLE_EQ(stats.count(0), 25.0);
}

TEST(RebalancerTest, TeamsSortedAndUniqueAfterReplication) {
  auto current = Schedule::MakeStatic(2, 3);
  LoadStats stats(2);
  stats.Add(0, 1000);  // joiner 0 hot; partition 1 on joiner 1
  stats.Add(1, 1);
  Rebalancer rebalancer;
  auto next = rebalancer.Rebalance(current, &stats);
  for (const auto& team : next->teams) {
    EXPECT_TRUE(std::is_sorted(team.begin(), team.end()));
    EXPECT_EQ(std::set<uint32_t>(team.begin(), team.end()).size(),
              team.size())
        << "duplicate members";
  }
}

TEST(RebalancerTest, ConvergesUnderRepeatedSkew) {
  // Property: iterating rebalance on a fixed skewed distribution must
  // monotonically reduce estimated unbalancedness until stable.
  std::shared_ptr<const Schedule> schedule = Schedule::MakeStatic(8, 8);
  Rebalancer rebalancer;
  double prev = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 10; ++round) {
    LoadStats stats(8);
    stats.Add(0, 6400);  // one dominant partition
    for (uint32_t p = 1; p < 8; ++p) stats.Add(p, 100);
    const double u = Rebalancer::Unbalancedness(
        Rebalancer::JoinerWorkloads(*schedule, stats));
    EXPECT_LE(u, prev + 1e-9) << "unbalancedness increased in round "
                              << round;
    prev = u;
    schedule = rebalancer.Rebalance(schedule, &stats);
  }
  // The dominant partition ends up shared widely.
  EXPECT_GE(schedule->teams[0].size(), 4u);
}

}  // namespace
}  // namespace oij
