// The bitmask Bern(q) acceptance contract (batch_accept.h), in three
// layers of evidence:
//
//  1. Exact: every mask lane is bit-identical to Pcg64::Bernoulli(q) on
//     the same engine — the mask path and a per-element loop are
//     interchangeable mid-stream — and a bitmask-mode sampler's AddBatch
//     equals its element-wise Add loop under one seed at any chunking.
//  2. Statistical: bitmask-mode samples pass the subset-uniformity
//     chi-square gate (the same harness that verifies the skip path), and
//     both modes' sample-size distributions fit Binomial(n, q) — the
//     "same accepted count distribution" equivalence to geometric skips.
//  3. State: the acceptance mode rides in the serialized sampler state, so
//     a restored sampler continues in its original mode.

#include "src/core/batch_accept.h"

#include <bit>
#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_sampler.h"
#include "src/core/bernoulli_sampler.h"
#include "src/core/sampler_state.h"
#include "src/stats/chi_square.h"
#include "src/stats/uniformity.h"
#include "src/util/serialization.h"

namespace sampwh {
namespace {

constexpr double kAlpha = 1e-4;

TEST(BatchAcceptTest, MaskLanesAreBitIdenticalToBernoulli) {
  for (const double q : {0.01, 0.25, 0.5, 0.93}) {
    Pcg64 mask_rng(42, 7);
    Pcg64 scalar_rng(42, 7);
    for (int round = 0; round < 200; ++round) {
      const uint64_t mask = BernoulliAcceptMask(mask_rng, q, 64);
      for (size_t lane = 0; lane < 64; ++lane) {
        ASSERT_EQ((mask >> lane) & 1, scalar_rng.Bernoulli(q) ? 1u : 0u)
            << "q " << q << " round " << round << " lane " << lane;
      }
    }
    // Both engines consumed identical draw counts: they stay in lockstep.
    EXPECT_EQ(mask_rng.NextUint64(), scalar_rng.NextUint64());
  }
}

TEST(BatchAcceptTest, PartialLanesConsumeExactlyLanesDraws) {
  Pcg64 mask_rng(9);
  Pcg64 scalar_rng(9);
  const uint64_t mask = BernoulliAcceptMask(mask_rng, 0.4, 13);
  EXPECT_EQ(mask >> 13, 0u);  // lanes beyond the span stay clear
  for (size_t lane = 0; lane < 13; ++lane) {
    EXPECT_EQ((mask >> lane) & 1, scalar_rng.Bernoulli(0.4) ? 1u : 0u);
  }
  EXPECT_EQ(mask_rng.NextUint64(), scalar_rng.NextUint64());
}

TEST(BatchAcceptTest, DegenerateRatesConsumeNoDraws) {
  Pcg64 rng(5);
  Pcg64 untouched(5);
  EXPECT_EQ(BernoulliAcceptMask(rng, 0.0, 64), 0u);
  EXPECT_EQ(BernoulliAcceptMask(rng, -1.0, 64), 0u);
  EXPECT_EQ(BernoulliAcceptMask(rng, 1.0, 64), ~0ULL);
  EXPECT_EQ(BernoulliAcceptMask(rng, 1.0, 10), (1ULL << 10) - 1);
  EXPECT_EQ(BernoulliAcceptMask(rng, 0.5, 0), 0u);
  // Same early-outs as Bernoulli(): the engine never advanced.
  EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());
}

TEST(BatchAcceptTest, CompressAcceptedSelectsMaskedValuesInOrder) {
  const std::vector<Value> values = {10, 20, 30, 40, 50, 60};
  Value out[64];
  // Bits 0, 2, 5 -> values 10, 30, 60, in lane order.
  EXPECT_EQ(CompressAccepted(values, 0b100101, out), 3u);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 30);
  EXPECT_EQ(out[2], 60);
  // Lanes past values.size() are ignored even when set in the mask.
  EXPECT_EQ(CompressAccepted(values, ~0ULL, out), 6u);
  EXPECT_EQ(out[5], 60);
  EXPECT_EQ(CompressAccepted(values, 0, out), 0u);
}

PartitionSample RunBitmaskBatched(double q, uint64_t seed,
                                  const std::vector<Value>& values,
                                  size_t chunk) {
  BernoulliSampler sampler(q, Pcg64(seed), BernAcceptMode::kBitmask);
  const std::span<const Value> all(values);
  for (size_t i = 0; i < all.size(); i += chunk) {
    sampler.AddBatch(all.subspan(i, std::min(chunk, all.size() - i)));
  }
  return sampler.Finalize();
}

TEST(BatchAcceptTest, BitmaskBatchIsExactlyElementwise) {
  std::vector<Value> values;
  for (Value v = 0; v < 20000; ++v) values.push_back(v);
  for (const uint64_t seed : {3u, 71u, 9001u}) {
    BernoulliSampler scalar(0.07, Pcg64(seed), BernAcceptMode::kBitmask);
    for (const Value v : values) scalar.Add(v);
    const PartitionSample want = scalar.Finalize();
    // Chunk sizes around the 64-lane boundary: sub-lane, misaligned prime,
    // exact lanes, and multi-lane blocks.
    for (const size_t chunk : {1u, 63u, 64u, 65u, 997u, 4096u}) {
      const PartitionSample got = RunBitmaskBatched(0.07, seed, values, chunk);
      EXPECT_EQ(want.parent_size(), got.parent_size());
      EXPECT_TRUE(want.histogram() == got.histogram())
          << "seed " << seed << " chunk " << chunk;
    }
  }
}

TEST(BatchAcceptTest, BitmaskSamplesAreUniform) {
  // The skip path's central property, asserted for the bitmask path with
  // the same harness: conditioned on the size, every subset equally likely.
  std::vector<Value> population;
  for (Value v = 0; v < 10; ++v) population.push_back(v);
  Pcg64 rng(17);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, 60000,
      [&population](Pcg64& trial_rng) {
        BernoulliSampler sampler(0.4, trial_rng.Fork(0),
                                 BernAcceptMode::kBitmask);
        sampler.AddBatch(population);
        return sampler.Finalize().histogram().ToBag();
      },
      rng);
  ASSERT_GE(report.TestedClasses(), 3u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

/// Tallies the sample-size distribution of `mode` over `trials` runs on a
/// distinct population of size n, then chi-squares it against
/// Binomial(n, q) with undersized tail cells pooled.
void ExpectBinomialSizeLaw(BernAcceptMode mode, uint64_t n, double q,
                           int trials, uint64_t seed) {
  std::vector<Value> population;
  for (Value v = 0; v < static_cast<Value>(n); ++v) population.push_back(v);
  std::vector<uint64_t> observed(n + 1, 0);
  for (int t = 0; t < trials; ++t) {
    BernoulliSampler sampler(q, Pcg64(seed + t), mode);
    sampler.AddBatch(population);
    ++observed[sampler.sample_size()];
  }
  // Binomial pmf via the log-gamma form, stable for all cells.
  std::vector<double> pmf(n + 1, 0.0);
  for (uint64_t k = 0; k <= n; ++k) {
    const double log_choose = std::lgamma(double(n + 1)) -
                              std::lgamma(double(k + 1)) -
                              std::lgamma(double(n - k + 1));
    pmf[k] = std::exp(log_choose + double(k) * std::log(q) +
                      double(n - k) * std::log1p(-q));
  }
  // Pool cells whose expected count is below the chi-square floor into
  // their neighbor toward the mode of the distribution.
  std::vector<uint64_t> pooled_obs;
  std::vector<double> pooled_pmf;
  uint64_t acc_obs = 0;
  double acc_pmf = 0.0;
  for (uint64_t k = 0; k <= n; ++k) {
    acc_obs += observed[k];
    acc_pmf += pmf[k];
    if (acc_pmf * trials >= 8.0) {
      pooled_obs.push_back(acc_obs);
      pooled_pmf.push_back(acc_pmf);
      acc_obs = 0;
      acc_pmf = 0.0;
    }
  }
  if (!pooled_obs.empty()) {
    pooled_obs.back() += acc_obs;
    pooled_pmf.back() += acc_pmf;
  }
  const ChiSquareResult result =
      ChiSquareGoodnessOfFit(pooled_obs, pooled_pmf);
  EXPECT_GT(result.p_value, kAlpha)
      << "mode " << static_cast<int>(mode) << " statistic "
      << result.statistic << " df " << result.degrees_of_freedom;
}

TEST(BatchAcceptTest, BothModesFollowTheBinomialCountLaw) {
  // "Same accepted count distribution": the skip path and the bitmask path
  // each fit Binomial(64, 0.3) — the law that defines Bern(q) acceptance.
  ExpectBinomialSizeLaw(BernAcceptMode::kGeometricSkip, 64, 0.3, 6000, 100);
  ExpectBinomialSizeLaw(BernAcceptMode::kBitmask, 64, 0.3, 6000, 5000000);
}

TEST(BatchAcceptTest, AutoResolvesByRateAtConstruction) {
  // Below the calibrated threshold acceptance is sparse: geometric skips
  // amortize the RNG cost. At or above it the branch-free mask wins.
  EXPECT_EQ(BernoulliSampler(0.01, Pcg64(1), BernAcceptMode::kAuto)
                .accept_mode(),
            BernAcceptMode::kGeometricSkip);
  EXPECT_EQ(BernoulliSampler(0.19, Pcg64(1), BernAcceptMode::kAuto)
                .accept_mode(),
            BernAcceptMode::kGeometricSkip);
  EXPECT_EQ(BernoulliSampler(kAutoBitmaskRateThreshold, Pcg64(1),
                             BernAcceptMode::kAuto)
                .accept_mode(),
            BernAcceptMode::kBitmask);
  EXPECT_EQ(
      BernoulliSampler(0.5, Pcg64(1), BernAcceptMode::kAuto).accept_mode(),
      BernAcceptMode::kBitmask);
}

void ExpectAutoBitIdenticalTo(double q, BernAcceptMode expected) {
  std::vector<Value> values;
  for (Value v = 0; v < 4096; ++v) values.push_back(v * 2654435761u);
  BernoulliSampler auto_mode(q, Pcg64(77), BernAcceptMode::kAuto);
  BernoulliSampler explicit_mode(q, Pcg64(77), expected);
  ASSERT_EQ(auto_mode.accept_mode(), expected);
  auto_mode.AddBatch(values);
  explicit_mode.AddBatch(values);
  const PartitionSample a = auto_mode.Finalize();
  const PartitionSample b = explicit_mode.Finalize();
  EXPECT_EQ(a.parent_size(), b.parent_size());
  EXPECT_TRUE(a.histogram() == b.histogram()) << "q=" << q;
}

TEST(BatchAcceptTest, AutoIsBitIdenticalToExplicitMode) {
  // kAuto resolves before the constructor's first draw, so the full RNG
  // stream — and therefore the sample — matches the explicit mode exactly.
  ExpectAutoBitIdenticalTo(0.05, BernAcceptMode::kGeometricSkip);
  ExpectAutoBitIdenticalTo(0.35, BernAcceptMode::kBitmask);
}

TEST(BatchAcceptTest, AutoNeverSerializes) {
  // Serialized state names the resolved concrete mode, never kAuto.
  BernoulliSampler sampler(0.5, Pcg64(9), BernAcceptMode::kAuto);
  ASSERT_EQ(sampler.accept_mode(), BernAcceptMode::kBitmask);
  BinaryWriter writer;
  sampler.SaveState(&writer);
  BinaryReader reader(writer.buffer());
  Result<BernoulliSampler> restored = BernoulliSampler::LoadState(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().accept_mode(), BernAcceptMode::kBitmask);
}

TEST(BatchAcceptTest, AcceptanceModeSurvivesStateRoundTrip) {
  std::vector<Value> values;
  for (Value v = 0; v < 3000; ++v) values.push_back(v);
  const std::span<const Value> all(values);

  SamplerConfig config;
  config.kind = SamplerKind::kStratifiedBernoulli;
  // At this rate kAuto resolves to the bitmask.
  config.bernoulli_rate = 0.35;

  AnySampler reference(config, Pcg64(31));
  reference.AddBatch(all);
  const PartitionSample uninterrupted = reference.Finalize();

  AnySampler first_half(config, Pcg64(31));
  first_half.AddBatch(all.first(1000));
  const std::string state = first_half.SaveState();
  // The restored sampler must continue in bitmask mode and land
  // bit-identically.
  Result<AnySampler> restored = AnySampler::LoadState(state);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  restored.value().AddBatch(all.subspan(1000));
  const PartitionSample resumed = restored.value().Finalize();
  EXPECT_EQ(uninterrupted.parent_size(), resumed.parent_size());
  EXPECT_TRUE(uninterrupted.histogram() == resumed.histogram());
}

}  // namespace
}  // namespace sampwh
