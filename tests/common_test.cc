#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/rate_limiter.h"
#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/thread_util.h"
#include "common/types.h"

namespace oij {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(CodeName(Status::Code::kOk), "OK");
  EXPECT_EQ(CodeName(Status::Code::kNotFound), "NotFound");
  EXPECT_EQ(CodeName(Status::Code::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(CodeName(Status::Code::kParseError), "ParseError");
  EXPECT_EQ(CodeName(Status::Code::kInternal), "Internal");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

// ------------------------------------------------------------------ Hash

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip many output bits.
  const uint64_t a = Mix64(0x1234);
  const uint64_t b = Mix64(0x1235);
  const int differing = __builtin_popcountll(a ^ b);
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

TEST(HashTest, Mix64Deterministic) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

TEST(HashTest, RangePartitionCoversAllBucketsRoughlyEvenly) {
  constexpr uint32_t kBuckets = 8;
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t k = 0; k < 8000; ++k) {
    const uint32_t p = RangePartition(Mix64(k), kBuckets);
    ASSERT_LT(p, kBuckets);
    counts[p]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);  // expectation 1000, generous tolerance
    EXPECT_LT(c, 1200);
  }
}

TEST(HashTest, RangePartitionSingleBucket) {
  EXPECT_EQ(RangePartition(Mix64(123), 1), 0u);
}

// ---------------------------------------------------------------- Random

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(2);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    min = std::min(min, d);
    max = std::max(max, d);
  }
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  Rng rng(4);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.Sample(rng)]++;
  for (int c : counts) {
    EXPECT_GT(c, 1500);
    EXPECT_LT(c, 2500);
  }
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  Rng rng(5);
  ZipfSampler zipf(1000, 0.99);
  uint64_t head = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  // Under theta=0.99 the top-10 of 1000 keys draw a large share.
  EXPECT_GT(static_cast<double>(head) / total, 0.25);
}

TEST(ZipfTest, SamplesStayInRange) {
  Rng rng(6);
  for (double theta : {0.5, 0.99, 1.0, 1.5}) {
    ZipfSampler zipf(37, theta);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_LT(zipf.Sample(rng), 37u);
    }
  }
}

// ------------------------------------------------------------- SpscQueue

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  SpscQueue<int> q2(1);
  EXPECT_EQ(q2.capacity(), 2u);
}

TEST(SpscQueueTest, FifoOrder) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.TryPush(i));
  int v;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryPop(&v));
}

TEST(SpscQueueTest, FullRejectsPush) {
  SpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));
  int v;
  ASSERT_TRUE(q.TryPop(&v));
  EXPECT_TRUE(q.TryPush(99));
}

TEST(SpscQueueTest, SizeApprox) {
  SpscQueue<int> q(8);
  EXPECT_EQ(q.SizeApprox(), 0u);
  q.TryPush(1);
  q.TryPush(2);
  EXPECT_EQ(q.SizeApprox(), 2u);
}

TEST(SpscQueueTest, CrossThreadTransfersEverythingInOrder) {
  SpscQueue<uint64_t> q(64);
  constexpr uint64_t kN = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kN; ++i) q.Push(i);
  });
  uint64_t expect = 0;
  uint64_t v;
  while (expect < kN) {
    if (q.TryPop(&v)) {
      ASSERT_EQ(v, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(q.TryPop(&v));
}

TEST(SpscQueueTest, PushBoundedSucceedsWhenSpaceAvailable) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.PushBounded(7, /*deadline_ns=*/0), PushResult::kOk);
  int v;
  ASSERT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 7);
}

TEST(SpscQueueTest, PushBoundedZeroDeadlineIsSingleAttempt) {
  SpscQueue<int> q(2);
  while (q.TryPush(1)) {
  }
  const int64_t t0 = MonotonicNowUs();
  EXPECT_EQ(q.PushBounded(9, /*deadline_ns=*/0), PushResult::kTimedOut);
  EXPECT_LT(MonotonicNowUs() - t0, 100'000) << "deadline 0 must not spin";
}

TEST(SpscQueueTest, PushBoundedTimesOutAtDeadline) {
  SpscQueue<int> q(2);
  while (q.TryPush(1)) {
  }
  const int64_t t0 = MonotonicNowNs();
  const int64_t deadline = t0 + 20'000'000;  // 20 ms
  EXPECT_EQ(q.PushBounded(9, deadline), PushResult::kTimedOut);
  const int64_t elapsed = MonotonicNowNs() - t0;
  EXPECT_GE(elapsed, 15'000'000) << "returned well before the deadline";
  EXPECT_LT(elapsed, 2'000'000'000) << "spun far past the deadline";
}

TEST(SpscQueueTest, PushBoundedObservesStopToken) {
  SpscQueue<int> q(2);
  while (q.TryPush(1)) {
  }
  std::atomic<bool> stop{false};
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stop.store(true, std::memory_order_release);
  });
  // Infinite deadline: only the stop token can release the producer.
  EXPECT_EQ(q.PushBounded(9, /*deadline_ns=*/-1, &stop),
            PushResult::kStopped);
  stopper.join();
}

TEST(SpscQueueTest, PushBoundedSucceedsOnceConsumerDrains) {
  SpscQueue<int> q(2);
  while (q.TryPush(1)) {
  }
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    int v;
    ASSERT_TRUE(q.TryPop(&v));
  });
  const int64_t deadline = MonotonicNowNs() + 5'000'000'000;  // generous
  EXPECT_EQ(q.PushBounded(42, deadline), PushResult::kOk);
  consumer.join();
}

// ----------------------------------------------------------- RateLimiter

TEST(RateLimiterTest, UnlimitedNeverBlocks) {
  RateLimiter rl(0);
  EXPECT_TRUE(rl.unlimited());
  const int64_t t0 = MonotonicNowUs();
  for (int i = 0; i < 100000; ++i) rl.Acquire();
  EXPECT_LT(MonotonicNowUs() - t0, 1'000'000);
}

TEST(RateLimiterTest, PacesApproximately) {
  RateLimiter rl(10000);  // 10K/s -> 100 us per permit
  const int64_t t0 = MonotonicNowUs();
  rl.AcquireBatch(500);  // 50 ms worth
  const int64_t elapsed = MonotonicNowUs() - t0;
  EXPECT_GT(elapsed, 30'000);   // should take roughly 50 ms
  EXPECT_LT(elapsed, 500'000);  // generous upper bound for loaded CI
}

// ------------------------------------------------------------ ThreadUtil

TEST(ThreadUtilTest, NumCpusPositive) { EXPECT_GE(NumCpus(), 1); }

TEST(ThreadUtilTest, PinAndNameDoNotCrash) {
  std::thread t([] {
    SetCurrentThreadName("oij-test-thread");
    TryPinCurrentThreadTo(0);
    TryPinCurrentThreadTo(1 << 20);  // out of range: silent no-op
    TryPinCurrentThreadTo(-1);
  });
  t.join();
}

TEST(ThreadUtilTest, BackoffMakesProgress) {
  Backoff b;
  for (int i = 0; i < 100; ++i) b.Pause();
  b.Reset();
  b.Pause();
}

// ----------------------------------------------------------------- Types

TEST(TypesTest, IntervalWindowArithmetic) {
  IntervalWindow w{2'000'000, 0};
  EXPECT_EQ(w.start_for(5'000'000), 3'000'000);
  EXPECT_EQ(w.end_for(5'000'000), 5'000'000);
  EXPECT_EQ(w.length(), 2'000'000);

  IntervalWindow both{1000, 500};
  EXPECT_EQ(both.start_for(0), -1000);
  EXPECT_EQ(both.end_for(0), 500);
}

TEST(TypesTest, ScopedTimerAccumulates) {
  int64_t sink = 0;
  {
    ScopedTimerNs t(&sink);
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x += i;
  }
  EXPECT_GT(sink, 0);
  const int64_t first = sink;
  {
    ScopedTimerNs t(&sink);
  }
  EXPECT_GE(sink, first);
}

}  // namespace
}  // namespace oij
