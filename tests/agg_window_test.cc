#include <gtest/gtest.h>

#include <cmath>

#include "agg/aggregate.h"

namespace oij {
namespace {

// ------------------------------------------------------------- AggState

TEST(AggregateTest, InvertibilityClassification) {
  EXPECT_TRUE(IsInvertible(AggKind::kSum));
  EXPECT_TRUE(IsInvertible(AggKind::kCount));
  EXPECT_TRUE(IsInvertible(AggKind::kAvg));
  EXPECT_FALSE(IsInvertible(AggKind::kMin));
  EXPECT_FALSE(IsInvertible(AggKind::kMax));
}

TEST(AggregateTest, NamesRoundTrip) {
  for (AggKind k : {AggKind::kSum, AggKind::kCount, AggKind::kAvg,
                    AggKind::kMin, AggKind::kMax}) {
    AggKind parsed;
    ASSERT_TRUE(AggKindFromName(AggKindName(k), &parsed).ok());
    EXPECT_EQ(parsed, k);
  }
  AggKind parsed;
  EXPECT_TRUE(AggKindFromName("SUM", &parsed).ok());
  EXPECT_EQ(parsed, AggKind::kSum);
  EXPECT_FALSE(AggKindFromName("median", &parsed).ok());
}

TEST(AggregateTest, AddComputesAllOperators) {
  AggState agg;
  for (double v : {3.0, 1.0, 4.0, 1.0, 5.0}) agg.Add(v);
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kSum), 14.0);
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kCount), 5.0);
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kAvg), 2.8);
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kMin), 1.0);
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kMax), 5.0);
}

TEST(AggregateTest, EmptyResults) {
  AggState agg;
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kSum), 0.0);
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kCount), 0.0);
  EXPECT_TRUE(std::isnan(agg.Result(AggKind::kAvg)));
  EXPECT_TRUE(std::isnan(agg.Result(AggKind::kMin)));
  EXPECT_TRUE(std::isnan(agg.Result(AggKind::kMax)));
}

TEST(AggregateTest, SubtractInvertsAdd) {
  AggState agg;
  agg.Add(10.0);
  agg.Add(20.0);
  agg.Add(30.0);
  agg.Subtract(20.0);
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kSum), 40.0);
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kCount), 2.0);
  EXPECT_DOUBLE_EQ(agg.Result(AggKind::kAvg), 20.0);
}

TEST(AggregateTest, MergeCombinesPartials) {
  AggState a, b;
  a.Add(1.0);
  a.Add(5.0);
  b.Add(-2.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Result(AggKind::kSum), 4.0);
  EXPECT_DOUBLE_EQ(a.Result(AggKind::kCount), 3.0);
  EXPECT_DOUBLE_EQ(a.Result(AggKind::kMin), -2.0);
  EXPECT_DOUBLE_EQ(a.Result(AggKind::kMax), 5.0);
}

TEST(AggregateTest, MergeWithEmptyPartialIsIdentity) {
  AggState a, empty;
  a.Add(7.0);
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.Result(AggKind::kSum), 7.0);
  EXPECT_DOUBLE_EQ(a.Result(AggKind::kMin), 7.0);

  AggState b;
  b.Merge(a);
  EXPECT_DOUBLE_EQ(b.Result(AggKind::kMax), 7.0);
}

TEST(AggregateTest, ResetClears) {
  AggState a;
  a.Add(1.0);
  a.Reset();
  EXPECT_EQ(a.count, 0u);
  EXPECT_DOUBLE_EQ(a.sum, 0.0);
}

}  // namespace
}  // namespace oij
