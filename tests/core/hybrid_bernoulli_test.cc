#include "src/core/hybrid_bernoulli.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/qbound.h"

namespace sampwh {
namespace {

HybridBernoulliSampler::Options SmallOptions(uint64_t f, uint64_t n,
                                             double p = 1e-3) {
  HybridBernoulliSampler::Options options;
  options.footprint_bound_bytes = f;
  options.expected_population_size = n;
  options.exceedance_probability = p;
  return options;
}

TEST(HybridBernoulliTest, SmallStreamStaysExhaustive) {
  HybridBernoulliSampler sampler(SmallOptions(4096, 100), Pcg64(1));
  for (Value v = 0; v < 100; ++v) sampler.Add(v);
  EXPECT_EQ(sampler.phase(), SamplePhase::kExhaustive);
  const PartitionSample s = sampler.Finalize();
  EXPECT_EQ(s.phase(), SamplePhase::kExhaustive);
  EXPECT_EQ(s.size(), 100u);
  for (Value v = 0; v < 100; ++v) EXPECT_EQ(s.histogram().CountOf(v), 1u);
}

TEST(HybridBernoulliTest, DuplicateHeavyStreamStaysExhaustive) {
  // 1M elements over 8 distinct values easily fit the footprint: the final
  // sample is the exact histogram (the paper's Zipfian case, footnote 5).
  HybridBernoulliSampler sampler(SmallOptions(1024, 1 << 20), Pcg64(2));
  for (int i = 0; i < (1 << 20); ++i) sampler.Add(i & 7);
  const PartitionSample s = sampler.Finalize();
  EXPECT_EQ(s.phase(), SamplePhase::kExhaustive);
  EXPECT_EQ(s.size(), 1u << 20);
  EXPECT_EQ(s.histogram().CountOf(3), (1u << 20) / 8);
}

TEST(HybridBernoulliTest, DistinctStreamSwitchesToBernoulli) {
  const uint64_t n = 100000;
  HybridBernoulliSampler sampler(SmallOptions(8192, n), Pcg64(3));
  for (Value v = 0; v < static_cast<Value>(n); ++v) sampler.Add(v);
  EXPECT_EQ(sampler.phase(), SamplePhase::kBernoulli);
  const PartitionSample s = sampler.Finalize();
  EXPECT_EQ(s.phase(), SamplePhase::kBernoulli);
  EXPECT_EQ(s.parent_size(), n);
  EXPECT_NEAR(s.sampling_rate(), ApproxBernoulliRate(n, 1e-3, 1024), 1e-12);
  EXPECT_LE(s.size(), 1024u);
  EXPECT_GT(s.size(), 0u);
}

TEST(HybridBernoulliTest, FootprintBoundHoldsAtEveryInstant) {
  const uint64_t f = 2048;
  HybridBernoulliSampler sampler(SmallOptions(f, 50000), Pcg64(4));
  for (Value v = 0; v < 50000; ++v) {
    sampler.Add(v);
    ASSERT_LE(sampler.footprint_bytes(), f) << v;
  }
}

TEST(HybridBernoulliTest, SampleSizeConcentratesNearExpectation) {
  const uint64_t n = 200000;
  const uint64_t f = 8192;  // n_F = 1024
  const double p = 1e-3;
  const double q = ApproxBernoulliRate(n, p, 1024);
  double sum = 0.0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    HybridBernoulliSampler sampler(SmallOptions(f, n, p), Pcg64(100 + t));
    for (Value v = 0; v < static_cast<Value>(n); ++v) sampler.Add(v);
    const PartitionSample s = sampler.Finalize();
    EXPECT_LE(s.size(), 1024u);
    sum += static_cast<double>(s.size());
  }
  const double expected = n * q;
  EXPECT_NEAR(sum / trials, expected, 5.0 * std::sqrt(expected / trials));
}

TEST(HybridBernoulliTest, OverflowFallsBackToReservoir) {
  // Force phase 3 by feeding far more data than HB planned for: q was
  // computed for N = 20000 but the stream is 20x longer, so the Bernoulli
  // sample outgrows n_F with near certainty.
  const uint64_t planned_n = 20000;
  HybridBernoulliSampler sampler(SmallOptions(1024, planned_n), Pcg64(5));
  for (Value v = 0; v < static_cast<Value>(20 * planned_n); ++v) {
    sampler.Add(v);
    ASSERT_LE(sampler.footprint_bytes(), 1024u);
  }
  EXPECT_EQ(sampler.phase(), SamplePhase::kReservoir);
  const PartitionSample s = sampler.Finalize();
  EXPECT_EQ(s.phase(), SamplePhase::kReservoir);
  EXPECT_EQ(s.size(), 128u);  // exactly n_F
  EXPECT_EQ(s.parent_size(), 20 * planned_n);
}

TEST(HybridBernoulliTest, MarginalInclusionIsUniformAcrossPositions) {
  // Every stream position must appear in the final sample equally often —
  // including positions before and after the phase-1 -> 2 switch.
  const uint64_t n = 600;
  const uint64_t f = 512;  // n_F = 64, switch happens around element 64
  const int trials = 30000;
  std::vector<int> included(n, 0);
  for (int t = 0; t < trials; ++t) {
    HybridBernoulliSampler sampler(SmallOptions(f, n), Pcg64(1000 + t));
    for (Value v = 0; v < static_cast<Value>(n); ++v) sampler.Add(v);
    const PartitionSample s = sampler.Finalize();
    s.histogram().ForEach(
        [&](Value v, uint64_t c) { included[v] += static_cast<int>(c); });
  }
  double mean = 0.0;
  for (const int c : included) mean += c;
  mean /= static_cast<double>(n);
  for (uint64_t v = 0; v < n; ++v) {
    EXPECT_NEAR(included[v], mean, 5.0 * std::sqrt(mean) + 1) << v;
  }
}

TEST(HybridBernoulliTest, ExactRateOptionAlsoRespectsBound) {
  HybridBernoulliSampler::Options options = SmallOptions(1024, 50000);
  options.use_exact_rate = true;
  HybridBernoulliSampler sampler(options, Pcg64(6));
  for (Value v = 0; v < 50000; ++v) sampler.Add(v);
  const PartitionSample s = sampler.Finalize();
  EXPECT_LE(s.size(), 128u);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(HybridBernoulliTest, UnknownPopulationFallsBackToElementsSeen) {
  // expected_population_size = 0: the transition uses the count observed so
  // far; the bound still holds throughout.
  HybridBernoulliSampler sampler(SmallOptions(1024, 0), Pcg64(12));
  for (Value v = 0; v < 30000; ++v) {
    sampler.Add(v);
    ASSERT_LE(sampler.footprint_bytes(), 1024u);
  }
  EXPECT_TRUE(sampler.Finalize().Validate().ok());
}

}  // namespace
}  // namespace sampwh
