#include "src/core/purge.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/compact_histogram.h"

namespace sampwh {
namespace {

CompactHistogram MakeHistogram(
    const std::vector<std::pair<Value, uint64_t>>& entries) {
  CompactHistogram h;
  for (const auto& [v, n] : entries) h.Insert(v, n);
  return h;
}

TEST(PurgeBernoulliTest, RateOneIsIdentity) {
  CompactHistogram h = MakeHistogram({{1, 3}, {2, 1}, {3, 7}});
  const CompactHistogram original = h;
  Pcg64 rng(1);
  PurgeBernoulli(&h, 1.0, rng);
  EXPECT_TRUE(h == original);
}

TEST(PurgeBernoulliTest, RateZeroEmptiesSample) {
  CompactHistogram h = MakeHistogram({{1, 3}, {2, 5}});
  Pcg64 rng(2);
  PurgeBernoulli(&h, 0.0, rng);
  EXPECT_TRUE(h.empty());
}

TEST(PurgeBernoulliTest, CountsNeverGrow) {
  Pcg64 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    CompactHistogram h = MakeHistogram({{1, 10}, {2, 1}, {3, 4}});
    PurgeBernoulli(&h, 0.5, rng);
    EXPECT_LE(h.CountOf(1), 10u);
    EXPECT_LE(h.CountOf(2), 1u);
    EXPECT_LE(h.CountOf(3), 4u);
  }
}

TEST(PurgeBernoulliTest, RetentionRateMatchesQ) {
  Pcg64 rng(4);
  const double q = 0.3;
  uint64_t kept = 0;
  const int trials = 2000;
  const uint64_t per_trial = 100;
  for (int t = 0; t < trials; ++t) {
    CompactHistogram h = MakeHistogram({{1, 40}, {2, 35}, {3, 25}});
    PurgeBernoulli(&h, q, rng);
    kept += h.total_count();
  }
  const double observed =
      kept / static_cast<double>(trials * per_trial);
  EXPECT_NEAR(observed, q, 0.01);
}

TEST(PurgeBernoulliTest, ComposesMultiplicatively) {
  // Bern(a) then Bern(b) must keep each element with probability a*b.
  Pcg64 rng(5);
  uint64_t kept = 0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    CompactHistogram h = MakeHistogram({{1, 50}, {2, 50}});
    PurgeBernoulli(&h, 0.6, rng);
    PurgeBernoulli(&h, 0.5, rng);
    kept += h.total_count();
  }
  EXPECT_NEAR(kept / static_cast<double>(trials * 100), 0.3, 0.01);
}

TEST(PurgeReservoirTest, NoopWhenAlreadySmallEnough) {
  CompactHistogram h = MakeHistogram({{1, 2}, {2, 1}});
  const CompactHistogram original = h;
  Pcg64 rng(6);
  PurgeReservoir(&h, 5, rng);
  EXPECT_TRUE(h == original);
}

TEST(PurgeReservoirTest, ProducesExactTargetSize) {
  Pcg64 rng(7);
  for (const uint64_t m : {1ULL, 5ULL, 17ULL, 59ULL}) {
    CompactHistogram h = MakeHistogram({{1, 20}, {2, 20}, {3, 20}});
    PurgeReservoir(&h, m, rng);
    EXPECT_EQ(h.total_count(), m);
  }
}

TEST(PurgeReservoirTest, ZeroTargetEmptiesSample) {
  CompactHistogram h = MakeHistogram({{1, 3}});
  Pcg64 rng(8);
  PurgeReservoir(&h, 0, rng);
  EXPECT_TRUE(h.empty());
}

TEST(PurgeReservoirTest, CountsBoundedByOriginals) {
  Pcg64 rng(9);
  for (int t = 0; t < 100; ++t) {
    CompactHistogram h = MakeHistogram({{1, 3}, {2, 8}, {3, 1}});
    PurgeReservoir(&h, 6, rng);
    EXPECT_LE(h.CountOf(1), 3u);
    EXPECT_LE(h.CountOf(2), 8u);
    EXPECT_LE(h.CountOf(3), 1u);
    EXPECT_EQ(h.total_count(), 6u);
  }
}

TEST(PurgeReservoirTest, SelectionIsHypergeometric) {
  // Subsampling {a x 30, b x 20} down to 10 elements: the number of a's
  // kept must follow Hypergeometric(30, 20, 10), mean 6.
  Pcg64 rng(10);
  const int trials = 20000;
  double sum_a = 0.0;
  for (int t = 0; t < trials; ++t) {
    CompactHistogram h = MakeHistogram({{1, 30}, {2, 20}});
    PurgeReservoir(&h, 10, rng);
    sum_a += static_cast<double>(h.CountOf(1));
  }
  // mean = 10 * 30/50 = 6; var = 10*(3/5)(2/5)(40/49) ~ 1.96.
  EXPECT_NEAR(sum_a / trials, 6.0, 5.0 * std::sqrt(1.96 / trials));
}

TEST(PurgeReservoirStreamedTest, MultiSourceSizeAndBounds) {
  Pcg64 rng(11);
  CompactHistogram a = MakeHistogram({{1, 10}, {2, 5}});
  CompactHistogram b = MakeHistogram({{2, 7}, {3, 3}});
  const CompactHistogram merged = PurgeReservoirStreamed({&a, &b}, 12, rng);
  EXPECT_EQ(merged.total_count(), 12u);
  EXPECT_LE(merged.CountOf(1), 10u);
  EXPECT_LE(merged.CountOf(2), 12u);
  EXPECT_LE(merged.CountOf(3), 3u);
}

TEST(PurgeReservoirStreamedTest, KeepsEverythingWhenTargetExceedsTotal) {
  Pcg64 rng(12);
  CompactHistogram a = MakeHistogram({{1, 2}});
  CompactHistogram b = MakeHistogram({{1, 1}, {5, 2}});
  const CompactHistogram merged = PurgeReservoirStreamed({&a, &b}, 100, rng);
  EXPECT_EQ(merged.total_count(), 5u);
  EXPECT_EQ(merged.CountOf(1), 3u);
  EXPECT_EQ(merged.CountOf(5), 2u);
}

TEST(PurgeReservoirLinearScanTest, MatchesSelectionPurgeLaw) {
  // The Fig.-4-literal linear-scan variant and the selection purge must
  // produce identically distributed subsamples. Compare mean kept count
  // per value over many runs.
  const int trials = 10000;
  double selection_a = 0.0;
  double linear_a = 0.0;
  Pcg64 rng1(20);
  Pcg64 rng2(21);
  for (int t = 0; t < trials; ++t) {
    CompactHistogram h = MakeHistogram({{1, 12}, {2, 6}, {3, 2}});
    const CompactHistogram f = PurgeReservoirStreamed({&h}, 5, rng1);
    const CompactHistogram l =
        PurgeReservoirStreamedLinearScan({&h}, 5, rng2);
    EXPECT_EQ(f.total_count(), 5u);
    EXPECT_EQ(l.total_count(), 5u);
    selection_a += static_cast<double>(f.CountOf(1));
    linear_a += static_cast<double>(l.CountOf(1));
  }
  // Both must track the hypergeometric mean 5 * 12/20 = 3.
  EXPECT_NEAR(selection_a / trials, 3.0, 0.05);
  EXPECT_NEAR(linear_a / trials, 3.0, 0.05);
}

TEST(PurgeReservoirStreamedTest, EachElementEquallyLikelyToSurvive) {
  // 5 distinct values, keep 2 of 5 elements: each value should survive
  // with probability 2/5.
  Pcg64 rng(13);
  const int trials = 30000;
  std::vector<int> survived(6, 0);
  for (int t = 0; t < trials; ++t) {
    CompactHistogram h =
        MakeHistogram({{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}});
    PurgeReservoir(&h, 2, rng);
    for (Value v = 1; v <= 5; ++v) {
      if (h.CountOf(v) > 0) ++survived[v];
    }
  }
  for (Value v = 1; v <= 5; ++v) {
    EXPECT_NEAR(survived[v] / static_cast<double>(trials), 0.4, 0.015) << v;
  }
}

}  // namespace
}  // namespace sampwh
