#include "src/core/hybrid_reservoir.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace sampwh {
namespace {

HybridReservoirSampler::Options Opts(uint64_t f) {
  HybridReservoirSampler::Options options;
  options.footprint_bound_bytes = f;
  return options;
}

TEST(HybridReservoirTest, SmallStreamStaysExhaustive) {
  HybridReservoirSampler sampler(Opts(4096), Pcg64(1));
  for (Value v = 0; v < 100; ++v) sampler.Add(v);
  const PartitionSample s = sampler.Finalize();
  EXPECT_EQ(s.phase(), SamplePhase::kExhaustive);
  EXPECT_EQ(s.size(), 100u);
}

TEST(HybridReservoirTest, DuplicateHeavyStreamStaysExhaustive) {
  HybridReservoirSampler sampler(Opts(1024), Pcg64(2));
  for (int i = 0; i < 500000; ++i) sampler.Add(i % 16);
  const PartitionSample s = sampler.Finalize();
  EXPECT_EQ(s.phase(), SamplePhase::kExhaustive);
  EXPECT_EQ(s.size(), 500000u);
}

TEST(HybridReservoirTest, LongDistinctStreamYieldsExactNf) {
  const uint64_t f = 1024;  // n_F = 128
  HybridReservoirSampler sampler(Opts(f), Pcg64(3));
  for (Value v = 0; v < 100000; ++v) {
    sampler.Add(v);
    ASSERT_LE(sampler.footprint_bytes(), f);
  }
  const PartitionSample s = sampler.Finalize();
  EXPECT_EQ(s.phase(), SamplePhase::kReservoir);
  EXPECT_EQ(s.size(), 128u);
  EXPECT_EQ(s.parent_size(), 100000u);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(HybridReservoirTest, SampleSizeIsStableAcrossRuns) {
  // The paper's key contrast with HB: HR's terminal size is deterministic
  // (n_F) whenever the stream outgrows the footprint.
  for (int t = 0; t < 20; ++t) {
    HybridReservoirSampler sampler(Opts(512), Pcg64(100 + t));
    for (Value v = 0; v < 5000; ++v) sampler.Add(v);
    EXPECT_EQ(sampler.Finalize().size(), 64u);
  }
}

TEST(HybridReservoirTest, MarginalInclusionIsUniformAcrossPositions) {
  const uint64_t n = 500;
  const uint64_t f = 256;  // n_F = 32
  const int trials = 40000;
  std::vector<int> included(n, 0);
  for (int t = 0; t < trials; ++t) {
    HybridReservoirSampler sampler(Opts(f), Pcg64(1000 + t));
    for (Value v = 0; v < static_cast<Value>(n); ++v) sampler.Add(v);
    const PartitionSample s = sampler.Finalize();
    s.histogram().ForEach(
        [&](Value v, uint64_t c) { included[v] += static_cast<int>(c); });
  }
  const double expected = trials * 32.0 / n;  // 2560
  for (uint64_t v = 0; v < n; ++v) {
    EXPECT_NEAR(included[v], expected, 5.0 * std::sqrt(expected)) << v;
  }
}

TEST(HybridReservoirTest, LazyPurgeNeverFiringStillFinalizesCorrectly) {
  // Cross into phase 2 but end the stream before any reservoir insertion
  // fires; Finalize must still cut the histogram to n_F.
  const uint64_t f = 256;  // n_F = 32; switch at the 32nd distinct value
  for (int t = 0; t < 50; ++t) {
    HybridReservoirSampler sampler(Opts(f), Pcg64(200 + t));
    for (Value v = 0; v < 33; ++v) sampler.Add(v);  // just past the switch
    if (sampler.phase() != SamplePhase::kReservoir) continue;
    const PartitionSample s = sampler.Finalize();
    EXPECT_EQ(s.phase(), SamplePhase::kReservoir);
    EXPECT_EQ(s.size(), 32u);
    EXPECT_TRUE(s.Validate().ok());
  }
}

}  // namespace
}  // namespace sampwh
