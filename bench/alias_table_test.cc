#include "bench/alias_table.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/distributions.h"

namespace sampwh {
namespace {

TEST(AliasTableTest, SingleColumnAlwaysSampled) {
  AliasTable table({1.0});
  Pcg64 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable table({0.0, 1.0, 0.0, 2.0});
  Pcg64 rng(2);
  for (int i = 0; i < 10000; ++i) {
    const size_t s = table.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, InvariantHolds) {
  // Vose invariant: r_l + sum_{j: a_j = l} (1 - r_j) = n * P(l).
  const std::vector<double> weights = {0.1, 0.4, 0.15, 0.05, 0.3};
  AliasTable table(weights);
  const size_t n = weights.size();
  for (size_t l = 0; l < n; ++l) {
    double mass = table.probability(l);
    for (size_t j = 0; j < n; ++j) {
      if (j != l && table.alias(j) == l) mass += 1.0 - table.probability(j);
      if (j == l && table.alias(j) == l) {
        // self-alias contributes its own leftover
        mass += 1.0 - table.probability(j);
      }
    }
    EXPECT_NEAR(mass, n * weights[l], 1e-9) << l;
  }
}

TEST(AliasTableTest, EmpiricalFrequenciesMatchWeights) {
  const std::vector<double> weights = {5.0, 1.0, 3.0, 1.0};
  AliasTable table(weights);
  Pcg64 rng(3);
  const int trials = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < trials; ++i) ++counts[table.Sample(rng)];
  const double total = 10.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = trials * weights[i] / total;
    EXPECT_NEAR(counts[i], expected, 5.0 * std::sqrt(expected)) << i;
  }
}

TEST(AliasTableTest, MatchesHypergeometricPmf) {
  // The paper's use case: alias table over a hypergeometric pmf vector.
  HypergeometricDistribution d(20, 15, 10);
  AliasTable table(d.PmfVector());
  Pcg64 rng(4);
  const int trials = 100000;
  std::vector<int> counts(table.size(), 0);
  for (int i = 0; i < trials; ++i) ++counts[table.Sample(rng)];
  for (size_t i = 0; i < table.size(); ++i) {
    const double expected =
        trials * d.Pmf(d.support_min() + i);
    if (expected < 5.0) continue;
    EXPECT_NEAR(counts[i], expected, 6.0 * std::sqrt(expected)) << i;
  }
}

TEST(AliasTableTest, UniformWeights) {
  AliasTable table(std::vector<double>(8, 1.0));
  Pcg64 rng(5);
  std::vector<int> counts(8, 0);
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) ++counts[table.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, trials / 8.0, 5.0 * std::sqrt(trials / 8.0));
}

}  // namespace
}  // namespace sampwh
