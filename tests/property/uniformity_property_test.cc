// The library's central statistical property (§2 requirement 1): every
// sampler and every merge path produces samples that are UNIFORM — for each
// size k, all size-k subsets of the population are equally likely. These
// tests enumerate all subsets of small distinct-valued populations, run
// tens of thousands of independent sampling experiments, and chi-square
// every adequately populated size class. Seeds are fixed; thresholds are
// set so the suite is deterministic.

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/bernoulli_sampler.h"
#include "src/core/hybrid_bernoulli.h"
#include "src/core/hybrid_reservoir.h"
#include "src/core/merge.h"
#include "src/core/multi_purge_sampler.h"
#include "src/stats/uniformity.h"

namespace sampwh {
namespace {

constexpr double kAlpha = 1e-4;  // per-class rejection threshold

std::vector<Value> Population(Value begin, Value end) {
  std::vector<Value> out;
  for (Value v = begin; v < end; ++v) out.push_back(v);
  return out;
}

// Asserts uniformity for every tested size class strictly below
// `size_limit` and returns how many such classes were tested. Algorithm
// HB's phase-2 size classes (k < n_F) are exactly uniform; the class at
// exactly n_F is the documented fallback-path exception (see
// HybridBernoulliOverflowFallbackIsBiased and hybrid_bernoulli.h).
uint64_t ExpectUniformBelow(const UniformityReport& report,
                            uint64_t size_limit) {
  uint64_t tested = 0;
  for (const auto& [k, result] : report.by_size) {
    if (k >= size_limit || !result.tested) continue;
    EXPECT_GT(result.chi_square.p_value, kAlpha) << "size class " << k;
    ++tested;
  }
  return tested;
}

TEST(UniformityProperty, HybridReservoirIsUniform) {
  // 8 distinct values, n_F = 4: HR switches to reservoir mode at the 4th
  // value and finishes with a size-4 SRS over C(8,4) = 70 subsets.
  const std::vector<Value> population = Population(0, 8);
  Pcg64 rng(1);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 50000,
      [&population](Pcg64& trial_rng) {
        HybridReservoirSampler::Options options;
        options.footprint_bound_bytes = 4 * kSingletonFootprintBytes;
        HybridReservoirSampler sampler(options, trial_rng.Fork(0));
        for (const Value v : population) sampler.Add(v);
        return sampler.Finalize().histogram().ToBag();
      },
      rng);
  ASSERT_GE(report.TestedClasses(), 1u);
  EXPECT_GT(report.MinPValue(), kAlpha);
  EXPECT_EQ(report.by_size.at(4).trials, 50000u);  // size pinned at n_F
}

TEST(UniformityProperty, HybridBernoulliIsUniform) {
  // 10 distinct values, n_F = 4, and the paper's operating regime of a
  // small exceedance probability (p = 1e-3). Every phase-2 size class
  // (k < n_F) must be exactly uniform. The class at exactly n_F is the
  // fallback path, whose intrinsic bias is documented by
  // HybridBernoulliOverflowFallbackIsBiased below — at toy population
  // sizes P{|S| reaches n_F} is dominated by P{|S| = n_F}, which no choice
  // of p makes negligible, so that class is asserted separately.
  const std::vector<Value> population = Population(0, 10);
  Pcg64 rng(2);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 120000,
      [&population](Pcg64& trial_rng) {
        HybridBernoulliSampler::Options options;
        options.footprint_bound_bytes = 4 * kSingletonFootprintBytes;
        options.expected_population_size = population.size();
        options.exceedance_probability = 1e-3;
        HybridBernoulliSampler sampler(options, trial_rng.Fork(0));
        for (const Value v : population) sampler.Add(v);
        return sampler.Finalize().histogram().ToBag();
      },
      rng);
  EXPECT_GE(ExpectUniformBelow(report, 4), 2u);
}

TEST(UniformityProperty, HybridBernoulliExactRateIsUniform) {
  const std::vector<Value> population = Population(0, 9);
  Pcg64 rng(3);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 80000,
      [&population](Pcg64& trial_rng) {
        HybridBernoulliSampler::Options options;
        options.footprint_bound_bytes = 3 * kSingletonFootprintBytes;
        options.expected_population_size = population.size();
        options.exceedance_probability = 1e-3;
        options.use_exact_rate = true;
        HybridBernoulliSampler sampler(options, trial_rng.Fork(0));
        for (const Value v : population) sampler.Add(v);
        return sampler.Finalize().histogram().ToBag();
      },
      rng);
  EXPECT_GE(ExpectUniformBelow(report, 3), 1u);
}

TEST(UniformityProperty, HybridBernoulliOverflowFallbackIsBiased) {
  // Documents the reproduction finding discussed in hybrid_bernoulli.h:
  // Fig. 2's phase-2 -> 3 fallback freezes the Bernoulli sample at the
  // moment it reaches n_F values, conditioning the reservoir's initial
  // state on the triggering element being included. Forcing the fallback
  // (p = 0.3, so ~30-40%% of runs overflow) makes the size-n_F class
  // measurably non-uniform — later stream positions are over-represented —
  // while every phase-2 size class stays exactly uniform. The effect is
  // bounded by p, hence negligible at the paper's p <= 1e-3.
  const std::vector<Value> population = Population(0, 10);
  Pcg64 rng(13);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 120000,
      [&population](Pcg64& trial_rng) {
        HybridBernoulliSampler::Options options;
        options.footprint_bound_bytes = 4 * kSingletonFootprintBytes;
        options.expected_population_size = population.size();
        options.exceedance_probability = 0.3;
        HybridBernoulliSampler sampler(options, trial_rng.Fork(0));
        for (const Value v : population) sampler.Add(v);
        return sampler.Finalize().histogram().ToBag();
      },
      rng);
  // Phase-2 classes (sizes 1..3) are uniform...
  for (const uint64_t k : {1ULL, 2ULL, 3ULL}) {
    const auto it = report.by_size.find(k);
    ASSERT_NE(it, report.by_size.end());
    if (it->second.tested) {
      EXPECT_GT(it->second.chi_square.p_value, kAlpha) << "size " << k;
    }
  }
  // ...while the fallback class at n_F = 4 is demonstrably not.
  const auto fallback = report.by_size.find(4);
  ASSERT_NE(fallback, report.by_size.end());
  ASSERT_TRUE(fallback->second.tested);
  EXPECT_LT(fallback->second.chi_square.p_value, 1e-6);
}

TEST(UniformityProperty, MultiPurgeVariantIsUniform) {
  const std::vector<Value> population = Population(0, 9);
  Pcg64 rng(4);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 80000,
      [&population](Pcg64& trial_rng) {
        MultiPurgeBernoulliSampler::Options options;
        options.footprint_bound_bytes = 4 * kSingletonFootprintBytes;
        options.expected_population_size = population.size();
        options.exceedance_probability = 0.3;
        MultiPurgeBernoulliSampler sampler(options, trial_rng.Fork(0));
        for (const Value v : population) sampler.Add(v);
        return sampler.Finalize().histogram().ToBag();
      },
      rng);
  ASSERT_GE(report.TestedClasses(), 1u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

TEST(UniformityProperty, PlainBernoulliIsUniform) {
  const std::vector<Value> population = Population(0, 9);
  Pcg64 rng(5);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 80000,
      [&population](Pcg64& trial_rng) {
        BernoulliSampler sampler(0.35, trial_rng.Fork(0));
        for (const Value v : population) sampler.Add(v);
        return sampler.Finalize().histogram().ToBag();
      },
      rng);
  ASSERT_GE(report.TestedClasses(), 3u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

TEST(UniformityProperty, HrMergeIsUniform) {
  // Theorem 1, empirically: HR samples of D1 = {0..4}, D2 = {5..11}
  // (n_F = 3 each) merged into a size-3 SRS of all 12 elements; all
  // C(12,3) = 220 subsets equally likely.
  const std::vector<Value> population = Population(0, 12);
  Pcg64 rng(6);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 120000,
      [](Pcg64& trial_rng) {
        HybridReservoirSampler::Options options;
        options.footprint_bound_bytes = 3 * kSingletonFootprintBytes;
        HybridReservoirSampler sa(options, trial_rng.Fork(1));
        for (Value v = 0; v < 5; ++v) sa.Add(v);
        HybridReservoirSampler sb(options, trial_rng.Fork(2));
        for (Value v = 5; v < 12; ++v) sb.Add(v);
        const PartitionSample s1 = sa.Finalize();
        const PartitionSample s2 = sb.Finalize();
        MergeOptions merge_options;
        merge_options.footprint_bound_bytes =
            3 * kSingletonFootprintBytes;
        auto merged = HRMerge(s1, s2, merge_options, trial_rng);
        EXPECT_TRUE(merged.ok());
        return merged.value().histogram().ToBag();
      },
      rng);
  ASSERT_EQ(report.TestedClasses(), 1u);
  EXPECT_EQ(report.by_size.at(3).num_subsets, 220u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

TEST(UniformityProperty, HbMergeOfBernoulliSamplesIsUniform) {
  // Two Bern(0.5) samples of disjoint 6-element partitions, HB-merged
  // under n_F = 4 (common rate ~0.33 plus occasional reservoir fallback):
  // the merged sample must be uniform over the 12-element union.
  const std::vector<Value> population = Population(0, 12);
  Pcg64 rng(8);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 120000,
      [](Pcg64& trial_rng) {
        BernoulliSampler sa(0.5, trial_rng.Fork(1));
        for (Value v = 0; v < 6; ++v) sa.Add(v);
        BernoulliSampler sb(0.5, trial_rng.Fork(2));
        for (Value v = 6; v < 12; ++v) sb.Add(v);
        const PartitionSample s1 = sa.Finalize();
        const PartitionSample s2 = sb.Finalize();
        MergeOptions merge_options;
        merge_options.footprint_bound_bytes =
            4 * kSingletonFootprintBytes;
        merge_options.exceedance_probability = 0.3;
        auto merged = HBMerge(s1, s2, merge_options, trial_rng);
        EXPECT_TRUE(merged.ok());
        return merged.value().histogram().ToBag();
      },
      rng);
  ASSERT_GE(report.TestedClasses(), 2u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

TEST(UniformityProperty, HbMergeExhaustiveCaseIsUniform) {
  // An exhaustive sample merged with an HB sample (Fig. 6, the exhaustive
  // side thinned as a Bern(1) sample): uniform over the union.
  const std::vector<Value> population = Population(0, 10);
  Pcg64 rng(9);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 100000,
      [](Pcg64& trial_rng) {
        // D1 = {0..3} exhaustive (big footprint); D2 = {4..9} HB-sampled
        // under n_F = 4.
        HybridBernoulliSampler::Options big;
        big.footprint_bound_bytes = 1024;
        big.expected_population_size = 4;
        HybridBernoulliSampler sa(big, trial_rng.Fork(1));
        for (Value v = 0; v < 4; ++v) sa.Add(v);
        HybridBernoulliSampler::Options small;
        small.footprint_bound_bytes = 4 * kSingletonFootprintBytes;
        small.expected_population_size = 6;
        small.exceedance_probability = 1e-3;
        HybridBernoulliSampler sb(small, trial_rng.Fork(2));
        for (Value v = 4; v < 10; ++v) sb.Add(v);
        const PartitionSample s1 = sa.Finalize();
        const PartitionSample s2 = sb.Finalize();
        EXPECT_EQ(s1.phase(), SamplePhase::kExhaustive);
        MergeOptions merge_options;
        merge_options.footprint_bound_bytes =
            4 * kSingletonFootprintBytes;
        merge_options.exceedance_probability = 1e-3;
        auto merged = HBMerge(s1, s2, merge_options, trial_rng);
        EXPECT_TRUE(merged.ok());
        return merged.value().histogram().ToBag();
      },
      rng);
  // Classes below n_F are exact. The n_F class is excluded because D2's own
  // streaming HB sampler enters the phase-2 -> 3 fallback documented in
  // hybrid_bernoulli.h: it falls back when its sample reaches n_F = 4
  // values, which at q(6, 1e-3, 4) = 0.181 happens with probability 1.2%,
  // not p. Those reservoir samples, biased toward D2's last elements,
  // reach HRMerge with k = n_F. The merge's own n_F class is checked on an
  // exact Bernoulli input below.
  EXPECT_GE(ExpectUniformBelow(report, 4), 1u);
}

TEST(UniformityProperty, HbMergeBesideBernoulliIsUniformInEveryClass) {
  // D1 = {0..3} exhaustive beside an exact Bern(0.5) sample of
  // D2 = {4..9}, merged under n_F = 4 at p = 0.3: the merged rate
  // q(10, 0.3, 4) is about 0.32, so the thinned join breaks F in about a
  // sixth of the trials and is cut to a uniform 4-subset. Every class must
  // be uniform, the n_F class included.
  const std::vector<Value> population = Population(0, 10);
  Pcg64 rng(14);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 100000,
      [](Pcg64& trial_rng) {
        HybridBernoulliSampler::Options big;
        big.footprint_bound_bytes = 1024;
        big.expected_population_size = 4;
        HybridBernoulliSampler sa(big, trial_rng.Fork(1));
        for (Value v = 0; v < 4; ++v) sa.Add(v);
        BernoulliSampler sb(0.5, trial_rng.Fork(2));
        for (Value v = 4; v < 10; ++v) sb.Add(v);
        const PartitionSample s1 = sa.Finalize();
        const PartitionSample s2 = sb.Finalize();
        EXPECT_EQ(s1.phase(), SamplePhase::kExhaustive);
        MergeOptions merge_options;
        merge_options.footprint_bound_bytes = 4 * kSingletonFootprintBytes;
        merge_options.exceedance_probability = 0.3;
        auto merged = HBMerge(s1, s2, merge_options, trial_rng);
        EXPECT_TRUE(merged.ok());
        return merged.value().histogram().ToBag();
      },
      rng);
  EXPECT_GT(report.MinPValue(), kAlpha);
  // Sizes 1..4 (size 0 has one outcome), the n_F class among them.
  EXPECT_EQ(report.TestedClasses(), 4u);
  ASSERT_EQ(report.by_size.count(4), 1u);
  EXPECT_TRUE(report.by_size.at(4).tested);
}

TEST(UniformityProperty, HrMergeExhaustiveCaseIsUniform) {
  const std::vector<Value> population = Population(0, 10);
  Pcg64 rng(10);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 80000,
      [](Pcg64& trial_rng) {
        HybridReservoirSampler::Options big;
        big.footprint_bound_bytes = 1024;
        HybridReservoirSampler sa(big, trial_rng.Fork(1));
        for (Value v = 0; v < 4; ++v) sa.Add(v);  // exhaustive
        HybridReservoirSampler::Options small;
        small.footprint_bound_bytes = 3 * kSingletonFootprintBytes;
        HybridReservoirSampler sb(small, trial_rng.Fork(2));
        for (Value v = 4; v < 10; ++v) sb.Add(v);  // SRS of size 3
        const PartitionSample s1 = sa.Finalize();
        const PartitionSample s2 = sb.Finalize();
        MergeOptions merge_options;
        merge_options.footprint_bound_bytes =
            3 * kSingletonFootprintBytes;
        auto merged = HRMerge(s1, s2, merge_options, trial_rng);
        EXPECT_TRUE(merged.ok());
        return merged.value().histogram().ToBag();
      },
      rng);
  ASSERT_GE(report.TestedClasses(), 1u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

TEST(UniformityProperty, ThreeWayMergeAllIsUniform) {
  // The merge tree over three partitions (a pairwise node beside a leaf)
  // stays uniform end to end, drawing each trial's node RNGs from a seed
  // of its own.
  const std::vector<Value> population = Population(0, 12);
  Pcg64 rng(11);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 120000,
      [](Pcg64& trial_rng) {
        HybridReservoirSampler::Options options;
        options.footprint_bound_bytes = 3 * kSingletonFootprintBytes;
        std::vector<PartitionSample> samples;
        for (int p = 0; p < 3; ++p) {
          HybridReservoirSampler sampler(options, trial_rng.Fork(p + 1));
          for (Value v = p * 4; v < (p + 1) * 4; ++v) sampler.Add(v);
          samples.push_back(sampler.Finalize());
        }
        std::vector<const PartitionSample*> pointers;
        for (const auto& s : samples) pointers.push_back(&s);
        MergeOptions merge_options;
        merge_options.footprint_bound_bytes =
            3 * kSingletonFootprintBytes;
        auto merged =
            MergeAll(pointers, merge_options, trial_rng.NextUint64());
        EXPECT_TRUE(merged.ok());
        return merged.value().histogram().ToBag();
      },
      rng);
  ASSERT_EQ(report.TestedClasses(), 1u);
  EXPECT_EQ(report.by_size.at(3).num_subsets, 220u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

// Parameterized sweep: HR uniformity across (population size, n_F)
// geometries, covering reservoirs that fill early, late, and barely.
class HrUniformitySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HrUniformitySweep, UniformForThisGeometry) {
  const auto [population_size, n_f] = GetParam();
  const std::vector<Value> population = Population(0, population_size);
  Pcg64 rng(777 + population_size * 31 + n_f);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 60000,
      [&population, n_f = n_f](Pcg64& trial_rng) {
        HybridReservoirSampler::Options options;
        options.footprint_bound_bytes =
            static_cast<uint64_t>(n_f) * kSingletonFootprintBytes;
        HybridReservoirSampler sampler(options, trial_rng.Fork(0));
        for (const Value v : population) sampler.Add(v);
        return sampler.Finalize().histogram().ToBag();
      },
      rng);
  ASSERT_EQ(report.TestedClasses(), 1u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

INSTANTIATE_TEST_SUITE_P(Geometries, HrUniformitySweep,
                         ::testing::Values(std::make_tuple(6, 2),
                                           std::make_tuple(8, 4),
                                           std::make_tuple(9, 3),
                                           std::make_tuple(10, 5),
                                           std::make_tuple(12, 2),
                                           std::make_tuple(7, 6)));

TEST(UniformityProperty, StreamOrderDoesNotMatter) {
  // Feed the same population in reversed order: uniformity must persist
  // (inclusion decisions are position-based, not value-based).
  const std::vector<Value> population = Population(0, 8);
  std::vector<Value> reversed(population.rbegin(), population.rend());
  Pcg64 rng(12);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 50000,
      [&reversed](Pcg64& trial_rng) {
        HybridReservoirSampler::Options options;
        options.footprint_bound_bytes = 4 * kSingletonFootprintBytes;
        HybridReservoirSampler sampler(options, trial_rng.Fork(0));
        for (const Value v : reversed) sampler.Add(v);
        return sampler.Finalize().histogram().ToBag();
      },
      rng);
  ASSERT_GE(report.TestedClasses(), 1u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

}  // namespace
}  // namespace sampwh
