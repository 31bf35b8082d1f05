// Edge and fallback paths of the merge layer that the mainline merge tests
// do not reach: rate-inversion fallback, bound mismatches, single-element
// populations, and degenerate inputs.

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/bernoulli_sampler.h"
#include "src/core/hybrid_bernoulli.h"
#include "src/core/hybrid_reservoir.h"
#include "src/core/merge.h"

namespace sampwh {
namespace {

CompactHistogram MakeHistogram(
    const std::vector<std::pair<Value, uint64_t>>& entries) {
  CompactHistogram h;
  for (const auto& [v, n] : entries) h.Insert(v, n);
  return h;
}

TEST(MergeEdgeTest, HbMergeFallsBackWhenCommonRateExceedsInputRates) {
  // Inputs were collected at a very low rate; a much looser merged bound
  // would ask for a HIGHER common rate, which Bernoulli thinning cannot
  // provide. HBMerge must detect this and fall back to the hypergeometric
  // merge instead of failing or producing a bogus rate.
  BernoulliSampler a(0.001, Pcg64(1));
  for (Value v = 0; v < 100000; ++v) a.Add(v);
  BernoulliSampler b(0.001, Pcg64(2));
  for (Value v = 100000; v < 200000; ++v) b.Add(v);
  const PartitionSample s1 = a.Finalize();
  const PartitionSample s2 = b.Finalize();
  MergeOptions options;
  options.footprint_bound_bytes = 1 << 20;  // n_F = 131072 >> N * q1
  Pcg64 rng(3);
  const auto merged = HBMerge(s1, s2, options, rng);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().phase(), SamplePhase::kReservoir);
  EXPECT_EQ(merged.value().parent_size(), 200000u);
  EXPECT_EQ(merged.value().size(), std::min(s1.size(), s2.size()));
}

TEST(MergeEdgeTest, MergeRejectsTinyFootprintBound) {
  const PartitionSample s = PartitionSample::MakeReservoir(
      MakeHistogram({{1, 1}}), 10, 8);
  MergeOptions options;
  options.footprint_bound_bytes = 4;  // below one value
  Pcg64 rng(4);
  EXPECT_FALSE(HBMerge(s, s, options, rng).ok());
  EXPECT_FALSE(HRMerge(s, s, options, rng).ok());
}

TEST(MergeEdgeTest, MergeRejectsInvalidInputs) {
  const PartitionSample good = PartitionSample::MakeReservoir(
      MakeHistogram({{1, 1}}), 10, 0);
  const PartitionSample bad = PartitionSample::MakeBernoulli(
      MakeHistogram({{1, 1}}), 10, 2.0, 0);  // invalid rate
  MergeOptions options;
  Pcg64 rng(5);
  EXPECT_FALSE(HRMerge(good, bad, options, rng).ok());
  EXPECT_FALSE(HBMerge(bad, good, options, rng).ok());
}

TEST(MergeEdgeTest, SingleElementPartitions) {
  HybridReservoirSampler::Options hr_options;
  hr_options.footprint_bound_bytes = 1024;
  HybridReservoirSampler a(hr_options, Pcg64(6));
  a.Add(7);
  HybridReservoirSampler b(hr_options, Pcg64(7));
  b.Add(8);
  const PartitionSample s1 = a.Finalize();
  const PartitionSample s2 = b.Finalize();
  MergeOptions options;
  options.footprint_bound_bytes = 1024;
  Pcg64 rng(8);
  const auto merged = HRMerge(s1, s2, options, rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 2u);
  EXPECT_EQ(merged.value().size(), 2u);  // both exhaustive -> exhaustive
  EXPECT_EQ(merged.value().histogram().CountOf(7), 1u);
  EXPECT_EQ(merged.value().histogram().CountOf(8), 1u);
}

TEST(MergeEdgeTest, TighterMergedBoundShrinksSample) {
  // Inputs collected under a loose bound, merged under a tight one: the
  // result must honor the tight bound.
  HybridReservoirSampler::Options loose;
  loose.footprint_bound_bytes = 4096;  // n_F = 512
  HybridReservoirSampler a(loose, Pcg64(9));
  for (Value v = 0; v < 10000; ++v) a.Add(v);
  HybridReservoirSampler b(loose, Pcg64(10));
  for (Value v = 10000; v < 20000; ++v) b.Add(v);
  const PartitionSample s1 = a.Finalize();
  const PartitionSample s2 = b.Finalize();
  ASSERT_EQ(s1.size(), 512u);
  MergeOptions options;
  options.footprint_bound_bytes = 256;  // n_F = 32
  Pcg64 rng(11);
  const auto merged = HRMerge(s1, s2, options, rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().size(), 32u);
  EXPECT_LE(merged.value().footprint_bytes(), 256u);
  EXPECT_TRUE(merged.value().Validate().ok());
}

TEST(MergeEdgeTest, HbMergeBothExhaustiveOverflowingTargetBound) {
  // Two exhaustive distinct-valued samples whose union cannot stay
  // exhaustive under the merged bound: the merge must thin them.
  const uint64_t f = 256;  // n_F = 32
  HybridBernoulliSampler::Options big;
  big.footprint_bound_bytes = 4096;
  big.expected_population_size = 30;
  HybridBernoulliSampler a(big, Pcg64(12));
  for (Value v = 0; v < 30; ++v) a.Add(v);
  HybridBernoulliSampler b(big, Pcg64(13));
  for (Value v = 30; v < 60; ++v) b.Add(v);
  const PartitionSample s1 = a.Finalize();
  const PartitionSample s2 = b.Finalize();
  ASSERT_EQ(s1.phase(), SamplePhase::kExhaustive);
  MergeOptions options;
  options.footprint_bound_bytes = f;
  Pcg64 rng(14);
  const auto merged = HBMerge(s1, s2, options, rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 60u);
  EXPECT_LE(merged.value().footprint_bytes(), f);
  EXPECT_NE(merged.value().phase(), SamplePhase::kExhaustive);
  EXPECT_TRUE(merged.value().Validate().ok());
}

TEST(MergeEdgeTest, UnionBernoulliOfExhaustiveInputsIsExhaustive) {
  const PartitionSample s1 = PartitionSample::MakeExhaustive(
      MakeHistogram({{1, 2}}), 2, 0);
  const PartitionSample s2 = PartitionSample::MakeExhaustive(
      MakeHistogram({{2, 3}}), 3, 0);
  Pcg64 rng(15);
  const auto merged = UnionBernoulli({&s1, &s2}, rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().phase(), SamplePhase::kExhaustive);
  EXPECT_EQ(merged.value().size(), 5u);
}

TEST(MergeEdgeTest, MergeAllWithMixedPhases) {
  // One exhaustive, one Bernoulli, one reservoir partition in a single
  // MergeAll — the dispatch must navigate every pairwise combination.
  HybridReservoirSampler::Options hr_options;
  hr_options.footprint_bound_bytes = 256;
  HybridReservoirSampler r(hr_options, Pcg64(16));
  for (Value v = 0; v < 5000; ++v) r.Add(v);

  HybridBernoulliSampler::Options hb_options;
  hb_options.footprint_bound_bytes = 256;
  hb_options.expected_population_size = 5000;
  HybridBernoulliSampler bn(hb_options, Pcg64(17));
  for (Value v = 5000; v < 10000; ++v) bn.Add(v);

  HybridReservoirSampler ex(hr_options, Pcg64(18));
  for (Value v = 10000; v < 10020; ++v) ex.Add(v);

  const PartitionSample s1 = r.Finalize();
  const PartitionSample s2 = bn.Finalize();
  const PartitionSample s3 = ex.Finalize();
  ASSERT_EQ(s1.phase(), SamplePhase::kReservoir);
  ASSERT_EQ(s3.phase(), SamplePhase::kExhaustive);

  MergeOptions options;
  options.footprint_bound_bytes = 256;
  // Every input order puts each pair of phases under one tree node.
  const std::vector<std::vector<const PartitionSample*>> orders = {
      {&s1, &s2, &s3}, {&s2, &s3, &s1}, {&s3, &s1, &s2}};
  for (size_t i = 0; i < orders.size(); ++i) {
    const auto merged = MergeAll(orders[i], options, /*seed=*/19 + i);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged.value().parent_size(), 10020u);
    EXPECT_LE(merged.value().footprint_bytes(), 256u);
    EXPECT_TRUE(merged.value().Validate().ok());
  }
}

}  // namespace
}  // namespace sampwh
