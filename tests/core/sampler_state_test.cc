// Mid-stream serialization of every sampler kind: a sampler saved at ANY
// split point and reloaded must continue bit-identically to one that was
// never serialized. Sweeping every split point of a stream that crosses
// the phase transitions covers, in particular, the states one element
// before and one element after the histogram->Bernoulli and
// Bernoulli->reservoir hand-offs (HB) and the histogram->reservoir
// hand-off (HR), where the most state is in flight.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_sampler.h"
#include "src/core/sampler_state.h"
#include "src/util/serialization.h"

namespace sampwh {
namespace {

std::string SerializedBytes(PartitionSample sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return std::move(writer).Release();
}

/// Runs `config` over 0..n-1 uninterrupted, then re-runs it with a
/// Save/Load round trip at every split point k, asserting the finalized
/// sample bytes never diverge.
void SweepAllSplitPoints(const SamplerConfig& config, uint64_t n,
                         uint64_t seed) {
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) values.push_back(static_cast<Value>(i));

  AnySampler reference(config, Pcg64(seed));
  reference.AddBatch(values);
  const std::string want = SerializedBytes(reference.Finalize());

  for (uint64_t k = 0; k <= n; ++k) {
    AnySampler before(config, Pcg64(seed));
    before.AddBatch(std::span<const Value>(values).first(k));
    const std::string state = before.SaveState();

    Result<AnySampler> after = AnySampler::LoadState(state);
    ASSERT_TRUE(after.ok()) << "split " << k << ": "
                            << after.status().ToString();
    EXPECT_EQ(after.value().elements_seen(), k) << "split " << k;
    after.value().AddBatch(std::span<const Value>(values).subspan(k));
    EXPECT_EQ(SerializedBytes(after.value().Finalize()), want)
        << "diverged after round trip at split " << k;
  }
}

// Small footprint so a 600-element stream walks HB through all three
// phases: exhaustive histogram, then Bern(q), then reservoir.
TEST(SamplerStateTest, HybridBernoulliResumesBitIdenticallyAtEverySplit) {
  SamplerConfig config;
  config.kind = SamplerKind::kHybridBernoulli;
  config.footprint_bound_bytes = 256;
  config.expected_partition_size = 600;
  SweepAllSplitPoints(config, 600, 0x48425f31ULL);
}

TEST(SamplerStateTest, HybridBernoulliExactRateResumesBitIdentically) {
  SamplerConfig config;
  config.kind = SamplerKind::kHybridBernoulli;
  config.footprint_bound_bytes = 256;
  config.expected_partition_size = 400;
  config.use_exact_rate = true;
  SweepAllSplitPoints(config, 400, 0x48425f32ULL);
}

TEST(SamplerStateTest, HybridReservoirResumesBitIdenticallyAtEverySplit) {
  SamplerConfig config;
  config.kind = SamplerKind::kHybridReservoir;
  config.footprint_bound_bytes = 256;
  SweepAllSplitPoints(config, 600, 0x48525f31ULL);
}

TEST(SamplerStateTest, StratifiedBernoulliResumesBitIdenticallyAtEverySplit) {
  SamplerConfig config;
  config.kind = SamplerKind::kStratifiedBernoulli;
  config.bernoulli_rate = 0.07;
  SweepAllSplitPoints(config, 600, 0x53425f31ULL);
}

// A state saved from a RESUMED sampler must itself resume: chains of
// checkpoints, not just one hop.
TEST(SamplerStateTest, DoubleRoundTripStaysBitIdentical) {
  SamplerConfig config;
  config.kind = SamplerKind::kHybridReservoir;
  config.footprint_bound_bytes = 256;
  std::vector<Value> values;
  for (Value v = 0; v < 900; ++v) values.push_back(v);

  AnySampler reference(config, Pcg64(7));
  reference.AddBatch(values);
  const std::string want = SerializedBytes(reference.Finalize());

  AnySampler first(config, Pcg64(7));
  first.AddBatch(std::span<const Value>(values).first(300));
  Result<AnySampler> second = AnySampler::LoadState(first.SaveState());
  ASSERT_TRUE(second.ok());
  second.value().AddBatch(std::span<const Value>(values).subspan(300, 300));
  Result<AnySampler> third =
      AnySampler::LoadState(second.value().SaveState());
  ASSERT_TRUE(third.ok());
  third.value().AddBatch(std::span<const Value>(values).subspan(600));
  EXPECT_EQ(SerializedBytes(third.value().Finalize()), want);
}

TEST(SamplerStateTest, OnlyTheCurrentVersionLoads) {
  // Versions 1 and 2, which older builds wrote, are refused like any
  // version this build does not write.
  AnySampler sampler(SamplerConfig(), Pcg64(17));
  for (Value v = 0; v < 100; ++v) sampler.Add(v);
  std::string state = sampler.SaveState();
  // Byte layout: fixed32 magic, then the varint version.
  ASSERT_EQ(state[4], static_cast<char>(kSamplerStateVersion));
  ASSERT_TRUE(AnySampler::LoadState(state).ok());
  for (const char version : {'\x00', '\x01', '\x02', '\x04'}) {
    state[4] = version;
    EXPECT_TRUE(AnySampler::LoadState(state).status().IsCorruption())
        << "version " << static_cast<int>(version);
  }
}

TEST(SamplerStateTest, LoadStateRejectsGarbage) {
  EXPECT_FALSE(AnySampler::LoadState("").ok());
  EXPECT_FALSE(AnySampler::LoadState("xyz").ok());
  EXPECT_FALSE(
      AnySampler::LoadState(std::string(64, '\x00')).ok());
}

TEST(SamplerStateTest, LoadStateRejectsTruncationAndTrailingBytes) {
  SamplerConfig config;
  config.kind = SamplerKind::kHybridBernoulli;
  config.footprint_bound_bytes = 256;
  config.expected_partition_size = 500;
  AnySampler sampler(config, Pcg64(11));
  for (Value v = 0; v < 500; ++v) sampler.Add(v);
  const std::string state = sampler.SaveState();
  ASSERT_TRUE(AnySampler::LoadState(state).ok());

  for (size_t len = 0; len < state.size(); ++len) {
    EXPECT_FALSE(AnySampler::LoadState(state.substr(0, len)).ok())
        << "accepted a state truncated to " << len << " bytes";
  }
  EXPECT_FALSE(AnySampler::LoadState(state + '\x00').ok());
}

TEST(SamplerStateTest, LoadStateRejectsCorruptKindTag) {
  SamplerConfig config;
  AnySampler sampler(config, Pcg64(13));
  for (Value v = 0; v < 100; ++v) sampler.Add(v);
  std::string state = sampler.SaveState();
  // Byte layout: fixed32 magic, varint version (1), varint kind tag.
  state[5] = '\x09';  // no such kind
  EXPECT_FALSE(AnySampler::LoadState(state).ok());
}

}  // namespace
}  // namespace sampwh
