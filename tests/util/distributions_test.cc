#include "src/util/distributions.h"

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/special_functions.h"

namespace sampwh {
namespace {

TEST(BinomialSamplerTest, EdgeCases) {
  Pcg64 rng(1);
  EXPECT_EQ(SampleBinomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(SampleBinomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(SampleBinomial(rng, 100, 1.0), 100u);
}

TEST(BinomialSamplerTest, AlwaysWithinSupport) {
  Pcg64 rng(2);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LE(SampleBinomial(rng, 50, 0.3), 50u);
    EXPECT_LE(SampleBinomial(rng, 100000, 0.7), 100000u);
  }
}

// Parameterized moment check across the inversion/BTRS boundary.
struct BinomialCase {
  uint64_t n;
  double p;
};

class BinomialMomentsTest : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMomentsTest, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Pcg64 rng(1234 + n);
  const int trials = 40000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double x = static_cast<double>(SampleBinomial(rng, n, p));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / trials;
  const double var = sum_sq / trials - mean * mean;
  const double expected_mean = static_cast<double>(n) * p;
  const double expected_var = static_cast<double>(n) * p * (1.0 - p);
  // 5-sigma tolerance on the sample mean.
  EXPECT_NEAR(mean, expected_mean,
              5.0 * std::sqrt(expected_var / trials) + 1e-9);
  EXPECT_NEAR(var, expected_var, 0.08 * expected_var + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AcrossAlgorithms, BinomialMomentsTest,
    ::testing::Values(BinomialCase{10, 0.5},      // inversion
                      BinomialCase{100, 0.05},    // inversion (np = 5)
                      BinomialCase{60, 0.4},      // inversion (np = 24)
                      BinomialCase{1000, 0.2},    // BTRS
                      BinomialCase{100000, 0.01}, // BTRS
                      BinomialCase{500, 0.9},     // symmetry + BTRS
                      BinomialCase{4096, 0.5}));  // BTRS

TEST(BinomialSamplerTest, ChiSquareAgainstExactPmf) {
  // Distributional check on a small case (inversion path).
  Pcg64 rng(77);
  const uint64_t n = 8;
  const double p = 0.35;
  const int trials = 80000;
  std::vector<int> counts(n + 1, 0);
  for (int i = 0; i < trials; ++i) ++counts[SampleBinomial(rng, n, p)];
  double chi2 = 0.0;
  for (uint64_t k = 0; k <= n; ++k) {
    const double expected = trials * BinomialPmf(n, p, k);
    chi2 += (counts[k] - expected) * (counts[k] - expected) / expected;
  }
  // df = 8; P{chi2 > 30} < 2e-4.
  EXPECT_LT(chi2, 30.0);
}

TEST(GeometricSkipTest, ZeroSkipWhenCertain) {
  Pcg64 rng(3);
  const GeometricSkip certain(1.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(certain.Sample(rng), 0u);
}

TEST(GeometricSkipTest, MeanMatchesGeometricLaw) {
  Pcg64 rng(4);
  const double p = 0.02;
  const GeometricSkip skip(p);
  const int trials = 100000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(skip.Sample(rng));
  }
  const double expected_mean = (1.0 - p) / p;  // failures before success
  EXPECT_NEAR(sum / trials, expected_mean, 0.05 * expected_mean);
}

TEST(GeometricSkipTest, ImpliesCorrectInclusionRate) {
  // A Bernoulli stream sampler driven by skips must include each element
  // with probability p.
  Pcg64 rng(5);
  const double p = 0.1;
  const uint64_t stream_length = 500000;
  const GeometricSkip skip(p);
  uint64_t included = 0;
  uint64_t gap = skip.Sample(rng);
  for (uint64_t i = 0; i < stream_length; ++i) {
    if (gap == 0) {
      ++included;
      gap = skip.Sample(rng);
    } else {
      --gap;
    }
  }
  EXPECT_NEAR(included / static_cast<double>(stream_length), p, 0.005);
}

// The skip with log1p(-p) computed once against the inversion that
// recomputes it on every draw: equal skips and equal generator state after
// every draw, over tiny, middling, near-1 and random rates. At p = 1 both
// return 0 without a draw. At p = 1e-17 a skip is near 1e17, where one ulp
// is 16, so any last-bit difference in the quotient changes the skip: a
// multiply by a rounded reciprocal fails here.
TEST(GeometricSkipTest, PrecomputedLogMatchesRecomputedBitForBit) {
  auto recomputed = [](Pcg64& rng, double p) -> uint64_t {
    if (p >= 1.0) return 0;
    const double g =
        std::floor(std::log(rng.NextDoubleOpen()) / std::log1p(-p));
    if (g < 0.0) return 0;
    if (g > 9.2e18) return UINT64_MAX;
    return static_cast<uint64_t>(g);
  };
  std::vector<double> rates = {
      1e-300, 1e-17, 1e-16, 1e-15, 1e-12, 1e-9, 1e-3, 0.1, 0.47, 0.5,
      std::nextafter(0.5, 0.0), 0.51, 0.9, 1 - 1e-12,
      std::nextafter(1.0, 0.0), 1.0};
  Pcg64 pick(7);
  for (int i = 0; i < 200; ++i) rates.push_back(pick.NextDoubleOpen());
  uint64_t seed = 100;
  for (const double p : rates) {
    const GeometricSkip skip(p);
    Pcg64 a(++seed);
    Pcg64 b = a;
    for (int draw = 0; draw < 500; ++draw) {
      ASSERT_EQ(skip.Sample(a), recomputed(b, p)) << "p=" << p;
    }
    ASSERT_EQ(a.NextUint64(), b.NextUint64()) << "p=" << p;
  }
}

TEST(HypergeometricTest, SupportBounds) {
  HypergeometricDistribution d(5, 3, 6);
  EXPECT_EQ(d.support_min(), 3u);  // k - n2 = 6 - 3
  EXPECT_EQ(d.support_max(), 5u);  // min(k, n1)
  EXPECT_EQ(d.Pmf(2), 0.0);
  EXPECT_EQ(d.Pmf(6), 0.0);
}

TEST(HypergeometricTest, PmfSumsToOne) {
  for (const auto& [n1, n2, k] :
       std::vector<std::tuple<uint64_t, uint64_t, uint64_t>>{
           {5, 7, 4}, {100, 50, 30}, {3, 3, 6}, {1000, 1, 2}}) {
    HypergeometricDistribution d(n1, n2, k);
    double total = 0.0;
    for (uint64_t l = d.support_min(); l <= d.support_max(); ++l) {
      total += d.Pmf(l);
    }
    EXPECT_NEAR(total, 1.0, 1e-10) << n1 << " " << n2 << " " << k;
  }
}

TEST(HypergeometricTest, PmfVectorMatchesDirectPmf) {
  HypergeometricDistribution d(40, 25, 20);
  const std::vector<double> pmf = d.PmfVector();
  ASSERT_EQ(pmf.size(), d.support_max() - d.support_min() + 1);
  for (uint64_t l = d.support_min(); l <= d.support_max(); ++l) {
    EXPECT_NEAR(pmf[l - d.support_min()], d.Pmf(l), 1e-12) << l;
  }
}

TEST(HypergeometricTest, RecurrenceEq3Holds) {
  // P(l+1) = (k-l)(n1-l) / ((l+1)(n2-k+l+1)) * P(l).
  HypergeometricDistribution d(30, 20, 15);
  for (uint64_t l = d.support_min(); l < d.support_max(); ++l) {
    const double ratio =
        static_cast<double>((15 - l) * (30 - l)) /
        static_cast<double>((l + 1) * (20 - 15 + l + 1));
    EXPECT_NEAR(d.Pmf(l + 1), ratio * d.Pmf(l), 1e-12) << l;
  }
}

TEST(HypergeometricTest, DegenerateCases) {
  Pcg64 rng(2);
  // All from D1.
  HypergeometricDistribution all(5, 0, 3);
  EXPECT_EQ(all.Sample(rng), 3u);
  // Whole population.
  HypergeometricDistribution whole(4, 6, 10);
  EXPECT_EQ(whole.Sample(rng), 4u);
}

TEST(HypergeometricTest, SampleMatchesPmfChiSquare) {
  HypergeometricDistribution d(12, 10, 8);
  Pcg64 rng(99);
  const int trials = 60000;
  std::vector<int> counts(d.support_max() + 1, 0);
  for (int i = 0; i < trials; ++i) ++counts[d.Sample(rng)];
  double chi2 = 0.0;
  int cells = 0;
  for (uint64_t l = d.support_min(); l <= d.support_max(); ++l) {
    const double expected = trials * d.Pmf(l);
    if (expected < 5.0) continue;
    chi2 += (counts[l] - expected) * (counts[l] - expected) / expected;
    ++cells;
  }
  // Very generous bound: with <= 9 cells, P{chi2 > 35} is ~1e-5.
  EXPECT_LT(chi2, 35.0) << "cells: " << cells;
}

TEST(HypergeometricTest, SampleMeanMatches) {
  HypergeometricDistribution d(1000, 3000, 400);
  Pcg64 rng(123);
  const int trials = 20000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(d.Sample(rng));
  // E[L] = k * n1 / (n1 + n2) = 100.
  EXPECT_NEAR(sum / trials, 100.0, 1.0);
}

TEST(ZipfGeneratorTest, RangeRespected) {
  ZipfGenerator zipf(100, 1.0);
  Pcg64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = zipf.Sample(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
  }
}

TEST(ZipfGeneratorTest, FrequenciesFollowPowerLaw) {
  const uint64_t n = 50;
  ZipfGenerator zipf(n, 1.0);
  Pcg64 rng(8);
  const int trials = 200000;
  std::vector<int> counts(n + 1, 0);
  for (int i = 0; i < trials; ++i) ++counts[zipf.Sample(rng)];
  double harmonic = 0.0;
  for (uint64_t v = 1; v <= n; ++v) harmonic += 1.0 / static_cast<double>(v);
  for (uint64_t v : {1ULL, 2ULL, 5ULL, 10ULL}) {
    const double expected =
        trials / (static_cast<double>(v) * harmonic);
    EXPECT_NEAR(counts[v], expected, 5.0 * std::sqrt(expected) + 1.0) << v;
  }
}

TEST(ZipfGeneratorTest, ZeroExponentIsUniform) {
  const uint64_t n = 10;
  ZipfGenerator zipf(n, 0.0);
  Pcg64 rng(9);
  const int trials = 100000;
  std::vector<int> counts(n + 1, 0);
  for (int i = 0; i < trials; ++i) ++counts[zipf.Sample(rng)];
  for (uint64_t v = 1; v <= n; ++v) {
    EXPECT_NEAR(counts[v], trials / static_cast<double>(n),
                5.0 * std::sqrt(trials / static_cast<double>(n)));
  }
}

}  // namespace
}  // namespace sampwh
