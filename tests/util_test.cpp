// Tests for util: FlatBitset, Rng, stats.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>

#include "util/backoff.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace apc {
namespace {

// ---------- FlatBitset ----------

TEST(FlatBitset, SetResetTest) {
  FlatBitset b(130);
  EXPECT_FALSE(b.test(0));
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(FlatBitset, OutOfRangeThrows) {
  FlatBitset b(10);
  EXPECT_THROW(b.set(10), Error);
  EXPECT_THROW(b.reset(10), Error);
  EXPECT_FALSE(b.test(10));  // test is lenient (reads as 0)
}

TEST(FlatBitset, SetAllRespectsDomain) {
  FlatBitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
}

TEST(FlatBitset, IntersectAndMinusCounts) {
  FlatBitset a(100), b(100);
  for (std::size_t i = 0; i < 100; i += 2) a.set(i);   // evens
  for (std::size_t i = 0; i < 100; i += 3) b.set(i);   // multiples of 3
  EXPECT_EQ(a.intersect_count(b), 17u);  // multiples of 6 in [0,100)
  EXPECT_EQ(a.minus_count(b), 50u - 17u);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ((a & b).count(), 17u);
  EXPECT_EQ((a | b).count(), 50u + 34u - 17u);
  EXPECT_EQ(a.minus(b).count(), 33u);
}

TEST(FlatBitset, SubsetRelation) {
  FlatBitset big(64), small(64);
  for (std::size_t i = 10; i < 30; ++i) big.set(i);
  for (std::size_t i = 15; i < 20; ++i) small.set(i);
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  EXPECT_TRUE(small.is_subset_of(small));
  FlatBitset empty(64);
  EXPECT_TRUE(empty.is_subset_of(small));
}

TEST(FlatBitset, MixedCapacityComparisons) {
  FlatBitset a(10), b(200);
  a.set(3);
  b.set(3);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(150);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
}

TEST(FlatBitset, FirstNextIteration) {
  FlatBitset b(256);
  b.set(5);
  b.set(64);
  b.set(255);
  EXPECT_EQ(b.first(), 5u);
  EXPECT_EQ(b.next(6), 64u);
  EXPECT_EQ(b.next(65), 255u);
  EXPECT_EQ(b.next(256), 256u);
  EXPECT_EQ(b.to_vector(), (std::vector<std::size_t>{5, 64, 255}));
}

TEST(FlatBitset, ForEachVisitsAscending) {
  FlatBitset b(90);
  const std::vector<std::size_t> want{1, 2, 3, 63, 64, 65, 89};
  for (std::size_t i : want) b.set(i);
  std::vector<std::size_t> got;
  b.for_each([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(FlatBitset, ResizePreservesBits) {
  FlatBitset b(10);
  b.set(7);
  b.resize(500);
  EXPECT_TRUE(b.test(7));
  EXPECT_EQ(b.count(), 1u);
  b.set(450);
  EXPECT_EQ(b.count(), 2u);
}

TEST(FlatBitset, PropertyVsStdSet) {
  Rng rng(77);
  FlatBitset a(300), b(300);
  std::set<std::size_t> sa, sb;
  for (int i = 0; i < 200; ++i) {
    const std::size_t x = rng.uniform(300);
    const std::size_t y = rng.uniform(300);
    a.set(x);
    sa.insert(x);
    b.set(y);
    sb.insert(y);
  }
  std::set<std::size_t> inter, uni, diff;
  for (auto x : sa) {
    if (sb.count(x)) inter.insert(x);
    else diff.insert(x);
    uni.insert(x);
  }
  for (auto x : sb) uni.insert(x);
  EXPECT_EQ((a & b).to_vector(),
            std::vector<std::size_t>(inter.begin(), inter.end()));
  EXPECT_EQ((a | b).to_vector(), std::vector<std::size_t>(uni.begin(), uni.end()));
  EXPECT_EQ(a.minus(b).to_vector(),
            std::vector<std::size_t>(diff.begin(), diff.end()));
  EXPECT_EQ(a.intersect_count(b), inter.size());
  EXPECT_EQ(a.minus_count(b), diff.size());
}

// ---------- Backoff ----------

TEST(Backoff, EveryDelayStaysWithinJitteredBaseAndCap) {
  // The cluster's resync worker retries with an attempt number that grows
  // until its repair succeeds, so the cap must hold for every attempt, not
  // just a retry budget's worth.  The first two policies are the worker's
  // and the WAL's default; the third overshoots its cap between two steps.
  using std::chrono::microseconds;
  using std::chrono::milliseconds;
  for (const util::BackoffPolicy& p :
       {util::BackoffPolicy{milliseconds{10}, milliseconds{500}, 2.0, 0.25, 0},
        util::BackoffPolicy{microseconds{500}, microseconds{20000}, 2.0, 0.25, 4},
        util::BackoffPolicy{microseconds{1000}, microseconds{64000}, 3.0, 0.5, 0}}) {
    const double lo = static_cast<double>(p.base.count()) * (1.0 - p.jitter);
    const double hi = static_cast<double>(p.max.count()) * (1.0 + p.jitter);
    Rng rng(42);
    for (std::size_t k = 0; k <= 10000; ++k) {
      const auto d = static_cast<double>(p.delay(k, rng).count());
      ASSERT_GE(d, lo) << "attempt " << k << " of base " << p.base.count() << " us";
      ASSERT_LE(d, hi) << "attempt " << k << " of base " << p.base.count() << " us";
    }
  }
}

TEST(Backoff, OneSeedGivesOneSchedule) {
  const util::BackoffPolicy p{std::chrono::milliseconds{10}, std::chrono::milliseconds{500},
                              2.0, 0.25, 6};
  const auto schedule = [&p](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::int64_t> out;
    for (std::size_t k = 0; k < 64; ++k) out.push_back(p.delay(k, rng).count());
    return out;
  };
  const std::vector<std::int64_t> want = schedule(7);
  EXPECT_EQ(schedule(7), want);
  EXPECT_NE(schedule(8), want);
  // Backoff hands out its policy's schedule for its seed, max_retries long.
  util::Backoff backoff(p, 7);
  for (std::size_t k = 0; k < p.max_retries; ++k) {
    EXPECT_FALSE(backoff.exhausted());
    EXPECT_EQ(backoff.next_delay().count(), want[k]) << "retry " << k;
  }
  EXPECT_TRUE(backoff.exhausted());
  // With no jitter the schedule is base * 2^k up to the cap, exactly.
  util::BackoffPolicy exact = p;
  exact.jitter = 0.0;
  const std::vector<std::int64_t> doubling = {10000,  20000,  40000,  80000,
                                              160000, 320000, 500000, 500000};
  Rng rng(7);
  for (std::size_t k = 0; k < doubling.size(); ++k)
    EXPECT_EQ(exact.delay(k, rng).count(), doubling[k]) << "attempt " << k;
}

// ---------- Rng ----------

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
  EXPECT_EQ(rng.uniform(0), 0u);
  EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ParetoMinimumAndHeavyTail) {
  Rng rng(11);
  double mx = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.pareto(1.0, 1.0);
    EXPECT_GE(x, 1.0);
    mx = std::max(mx, x);
  }
  EXPECT_GT(mx, 20.0);  // heavy tail: some samples far above the minimum
}

TEST(Rng, ExponentialPositive) {
  Rng rng(12);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.exponential(100.0);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  // Mean ~ 1/rate = 0.01.
  EXPECT_NEAR(sum / 5000.0, 0.01, 0.002);
}

TEST(Rng, ZipfSkewsLow) {
  Rng rng(13);
  std::size_t low = 0;
  for (int i = 0; i < 2000; ++i)
    if (rng.zipf(100, 1.0) < 10) ++low;
  EXPECT_GT(low, 700u);  // top-10 ranks dominate under Zipf(1)
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(14);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

// ---------- stats ----------

TEST(Stats, MeanMinMax) {
  const std::vector<double> xs{3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 2.8);
  EXPECT_DOUBLE_EQ(minimum(xs), 1.0);
  EXPECT_DOUBLE_EQ(maximum(xs), 5.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_THROW(minimum({}), Error);
}

TEST(Stats, Percentile) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 100.0);
  EXPECT_NEAR(percentile(xs, 50), 50.5, 1e-9);
  EXPECT_NEAR(percentile(xs, 95), 95.05, 1e-9);
  EXPECT_THROW(percentile(xs, 101), Error);
  EXPECT_THROW(percentile({}, 50), Error);
}

TEST(Stats, PercentileOrToleratesEmpty) {
  // The serving path aggregates per-shard latency samples; a shard that
  // served nothing must report 0 (or the caller's fallback), not throw.
  EXPECT_DOUBLE_EQ(percentile_or({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile_or({}, 99, -1.0), -1.0);
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_NEAR(percentile_or(xs, 50), percentile(xs, 50), 1e-12);
  // q validation stays strict even for the empty sample.
  EXPECT_THROW(percentile_or({}, 101), Error);
  EXPECT_THROW(percentile_or(xs, -1), Error);
}

TEST(Stats, CdfMonotone) {
  std::vector<double> xs{5, 3, 8, 1, 9, 2};
  const auto curve = cdf(xs, 6);
  ASSERT_EQ(curve.size(), 6u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GT(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().first, 9.0);
}

TEST(Stats, IntHistogram) {
  const auto h = int_histogram({0, 1, 1, 3, 3, 3});
  EXPECT_EQ(h, (std::vector<std::size_t>{1, 2, 0, 3}));
}

TEST(Stats, IntHistogramEmptyInput) {
  // Regression: an empty input used to yield {0} — a phantom bucket
  // claiming value 0 was observed zero times.
  EXPECT_TRUE(int_histogram({}).empty());
}

TEST(Stats, CdfQuantilesExact) {
  // Regression for the low-quantile off-by-one: with n = 10 values 1..10,
  // the frac-quantile is element ceil(frac * 10) - 1, so 0.15 -> xs[1] = 2
  // (the old unconditional decrement gave xs[0] = 1).
  std::vector<double> xs;
  for (int i = 1; i <= 10; ++i) xs.push_back(i);
  const auto curve = cdf(xs, 20);
  ASSERT_EQ(curve.size(), 20u);
  for (const auto& [value, frac] : curve) {
    const double expected = std::ceil(frac * 10.0 - 1e-9);
    EXPECT_DOUBLE_EQ(value, expected) << "frac=" << frac;
  }
  EXPECT_DOUBLE_EQ(curve.front().first, 1.0);   // 5% quantile
  EXPECT_DOUBLE_EQ(curve.back().first, 10.0);   // 100% quantile
}

TEST(Stats, CdfEdgeCases) {
  EXPECT_TRUE(cdf({}, 10).empty());
  EXPECT_TRUE(cdf({1.0, 2.0}, 0).empty());

  // Single element: every quantile is that element.
  const auto one = cdf({7.5}, 4);
  ASSERT_EQ(one.size(), 4u);
  for (const auto& [value, frac] : one) EXPECT_DOUBLE_EQ(value, 7.5);

  // More points than samples: indices stay in range and values cover the
  // whole sample.
  const auto dense = cdf({1.0, 2.0, 3.0}, 30);
  ASSERT_EQ(dense.size(), 30u);
  EXPECT_DOUBLE_EQ(dense.front().first, 1.0);
  EXPECT_DOUBLE_EQ(dense.back().first, 3.0);
  for (std::size_t i = 1; i < dense.size(); ++i)
    EXPECT_GE(dense[i].first, dense[i - 1].first);
}

}  // namespace
}  // namespace apc
