// Distributional properties of the merge layer beyond subset uniformity:
// Theorem 1's hypergeometric left-share law, the Bernoulli union laws of
// §3.1/§4.1, and structural invariants of multiway merges over randomized
// partition layouts.

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/bernoulli_sampler.h"
#include "src/core/hybrid_reservoir.h"
#include "src/core/merge.h"
#include "src/stats/chi_square.h"
#include "src/util/distributions.h"

namespace sampwh {
namespace {

PartitionSample HrSample(Value begin, Value end, uint64_t f, uint64_t seed) {
  HybridReservoirSampler::Options options;
  options.footprint_bound_bytes = f;
  HybridReservoirSampler sampler(options, Pcg64(seed));
  for (Value v = begin; v < end; ++v) sampler.Add(v);
  return sampler.Finalize();
}

TEST(MergePropertyTest, LeftShareFollowsHypergeometricLaw) {
  // Merge SRS(4) of |D1| = 30 with SRS(4) of |D2| = 50 and chi-square the
  // count L of merged elements drawn from D1 against Eq. (2).
  const uint64_t n1 = 30;
  const uint64_t n2 = 50;
  const uint64_t k = 4;
  const HypergeometricDistribution law(n1, n2, k);
  std::vector<uint64_t> observed(k + 1, 0);
  const int trials = 40000;
  Pcg64 rng(1);
  for (int t = 0; t < trials; ++t) {
    const PartitionSample s1 =
        HrSample(0, static_cast<Value>(n1), 4 * 8, 100 + t);
    const PartitionSample s2 = HrSample(
        static_cast<Value>(n1), static_cast<Value>(n1 + n2), 4 * 8, 5000 + t);
    MergeOptions options;
    options.footprint_bound_bytes = 4 * 8;
    const auto merged = HRMerge(s1, s2, options, rng);
    ASSERT_TRUE(merged.ok());
    uint64_t from_d1 = 0;
    merged.value().histogram().ForEach([&](Value v, uint64_t c) {
      if (v < static_cast<Value>(n1)) from_d1 += c;
    });
    ++observed[from_d1];
  }
  std::vector<double> expected;
  for (uint64_t l = 0; l <= k; ++l) expected.push_back(law.Pmf(l));
  const ChiSquareResult result =
      ChiSquareGoodnessOfFit(observed, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2 = " << result.statistic;
}

TEST(MergePropertyTest, UnionOfEqualRateBernoulliIsBernoulli) {
  // §3.1: union of Bern(q) samples of disjoint partitions is Bern(q) of the
  // union — so the union size must be Binomial(N1 + N2, q).
  const double q = 0.2;
  const uint64_t n1 = 300;
  const uint64_t n2 = 500;
  double sum = 0.0;
  double sum_sq = 0.0;
  const int trials = 4000;
  Pcg64 rng(2);
  for (int t = 0; t < trials; ++t) {
    BernoulliSampler a(q, Pcg64(10 + t));
    for (Value v = 0; v < static_cast<Value>(n1); ++v) a.Add(v);
    BernoulliSampler b(q, Pcg64(99000 + t));
    for (Value v = 0; v < static_cast<Value>(n2); ++v) b.Add(v + 1000);
    const PartitionSample s1 = a.Finalize();
    const PartitionSample s2 = b.Finalize();
    const auto merged = UnionBernoulli({&s1, &s2}, rng);
    ASSERT_TRUE(merged.ok());
    const double size = static_cast<double>(merged.value().size());
    sum += size;
    sum_sq += size * size;
  }
  const double mean = sum / trials;
  const double var = sum_sq / trials - mean * mean;
  const double n = static_cast<double>(n1 + n2);
  EXPECT_NEAR(mean, n * q, 5.0 * std::sqrt(n * q * (1 - q) / trials));
  EXPECT_NEAR(var, n * q * (1 - q), 0.15 * n * q * (1 - q));
}

TEST(MergePropertyTest, MergedParentSizesAdditive) {
  Pcg64 layout_rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t num_parts = 2 + layout_rng.UniformInt(6);
    std::vector<PartitionSample> samples;
    uint64_t total = 0;
    Value next = 0;
    for (size_t p = 0; p < num_parts; ++p) {
      const uint64_t size = 50 + layout_rng.UniformInt(3000);
      samples.push_back(HrSample(next, next + static_cast<Value>(size), 256,
                                 1000 + trial * 10 + p));
      next += static_cast<Value>(size);
      total += size;
    }
    std::vector<const PartitionSample*> pointers;
    for (const auto& s : samples) pointers.push_back(&s);
    MergeOptions options;
    options.footprint_bound_bytes = 256;
    const auto merged = MergeAll(pointers, options, /*seed=*/4000 + trial);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged.value().parent_size(), total);
    EXPECT_TRUE(merged.value().Validate().ok());
    EXPECT_LE(merged.value().footprint_bytes(), 256u);
  }
}

TEST(MergePropertyTest, MergeOrderInvariantMarginals) {
  // Element-level inclusion probability k/N must hold regardless of input
  // order. Merge 4 partitions of very different sizes in both orders and
  // compare per-partition representation.
  const std::vector<uint64_t> sizes = {200, 2000, 400, 4000};
  const uint64_t total =
      std::accumulate(sizes.begin(), sizes.end(), uint64_t{0});
  const uint64_t k = 32;  // F = 256
  const int trials = 4000;
  std::vector<double> share_fwd(4, 0.0);
  std::vector<double> share_rev(4, 0.0);
  for (int t = 0; t < trials; ++t) {
    std::vector<PartitionSample> samples;
    Value next = 0;
    std::vector<Value> boundaries = {0};
    for (size_t p = 0; p < sizes.size(); ++p) {
      samples.push_back(
          HrSample(next, next + static_cast<Value>(sizes[p]), 256,
                   7000 + t * 10 + p));
      next += static_cast<Value>(sizes[p]);
      boundaries.push_back(next);
    }
    std::vector<const PartitionSample*> fwd;
    for (const auto& s : samples) fwd.push_back(&s);
    std::vector<const PartitionSample*> rev(fwd.rbegin(), fwd.rend());
    MergeOptions options;
    options.footprint_bound_bytes = 256;
    const auto m_fwd = MergeAll(fwd, options, /*seed=*/2 * t);
    const auto m_rev = MergeAll(rev, options, /*seed=*/2 * t + 1);
    ASSERT_TRUE(m_fwd.ok() && m_rev.ok());
    auto tally = [&](const PartitionSample& s, std::vector<double>* share) {
      s.histogram().ForEach([&](Value v, uint64_t c) {
        for (size_t p = 0; p < sizes.size(); ++p) {
          if (v >= boundaries[p] && v < boundaries[p + 1]) {
            (*share)[p] += static_cast<double>(c);
          }
        }
      });
    };
    tally(m_fwd.value(), &share_fwd);
    tally(m_rev.value(), &share_rev);
  }
  for (size_t p = 0; p < sizes.size(); ++p) {
    const double expected = trials * static_cast<double>(k) *
                            static_cast<double>(sizes[p]) /
                            static_cast<double>(total);
    EXPECT_NEAR(share_fwd[p], expected, 6.0 * std::sqrt(expected)) << p;
    EXPECT_NEAR(share_rev[p], expected, 6.0 * std::sqrt(expected)) << p;
  }
}

TEST(MergePropertyTest, RepeatedPairwiseMergeKeepsSizeStable) {
  // The paper's Fig. 16 observation: HR sample sizes stay pinned at n_F
  // through arbitrarily long merge chains.
  MergeOptions options;
  options.footprint_bound_bytes = 256;  // n_F = 32
  Pcg64 rng(6);
  PartitionSample acc = HrSample(0, 5000, 256, 1);
  Value next = 5000;
  for (int step = 0; step < 16; ++step) {
    const PartitionSample s =
        HrSample(next, next + 5000, 256, 100 + step);
    next += 5000;
    auto merged = HRMerge(acc, s, options, rng);
    ASSERT_TRUE(merged.ok());
    acc = std::move(merged).value();
    EXPECT_EQ(acc.size(), 32u) << step;
  }
  EXPECT_EQ(acc.parent_size(), 17u * 5000u);
}

}  // namespace
}  // namespace sampwh
