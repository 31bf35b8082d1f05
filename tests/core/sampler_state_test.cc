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

// Version-2 records, written by a build whose histograms were varint
// pairs: each kind mid-stream, HB and HR both in the exhaustive phase (a
// histogram with repeated values) and later. Configuration and stream are
// those of V2Config and V2Stream, seed 0x5EED.
struct V2State {
  SamplerKind kind;
  uint64_t split;
  const char* hex;
  // For a record taken after a reservoir purge, in hex: the version-3
  // record of the same point and the final sample, both as written by a
  // build that purged with Fig. 4's loop. The selection purge draws
  // differently, so this build's own run reaches other contents; the old
  // record must still resume to the old build's bytes. Null when no purge
  // precedes the split, and this build's own run is the reference.
  const char* v3_hex = nullptr;
  const char* final_hex = nullptr;
};

// clang-format off
const V2State kV2States[] = {
    {SamplerKind::kHybridBernoulli, 50,
     "5357535302018002d804fca9f1d24d62503f0049c76c1a45e38a6d1f886b7ed43b6d6042"
     "66ded285cae923b9dd18601b3aeea20132000000000000f03f110f030203020302030203"
     "0203020302030203020302030203020302030202020302030000000000"},
    {SamplerKind::kHybridBernoulli, 300,
     "5357535302018002d804fca9f1d24d62503f0049de09ed30b7a05f0edc091e9bbc199942"
     "66ded285cae923b9dd18601b3aeea202ac0282b195c9fc0ca03f00010a0f0000b601fa02"
     "b201fc01c2014ec003cc010000"},
    {SamplerKind::kHybridReservoir, 50,
     "535753530202800249c76c1a45e38a6d1f886b7ed43b6d604266ded285cae923b9dd1860"
     "1b3aeea2013200110f030203020302030203020302030203020302030203020302030203"
     "02020203020300000000"},
    {SamplerKind::kHybridReservoir, 300,
     "535753530202800270b87b995acea993774c863d23f0c3124266ded285cae923b9dd1860"
     "1b3aeea203ac0220000120180bdc029e01096cbc03070705f402b401030bf2021a00bc02"
     "a802d802040682021208c203c602c403b80298012e96010120000000000000000000b002",
     "535753530302800270b87b995acea993774c863d23f0c3124266ded285cae923b9dd1860"
     "1b3aeea203ac0220000120180bdc029e01096cbc03070705f402b401030bf2021a00bc02"
     "a802d802040682021208c203c602c403b80298012e96010120000000000000000000b002",
     "3253575303b817000000000000f03f80021d07056489125b9905014084807015b2403401"
     "380911040000000000"},
    {SamplerKind::kStratifiedBernoulli, 1000,
     "5357535302039a9999999999b93fb34b280714fbe3428fddb4d94d6f86ca4266ded285ca"
     "e923b9dd18601b3aeea2e80704470f020801020102030201020102020201060106010401"
     "040112010a010e02020106010c010c010201080108011201080102010801060102011001"
     "1001060102010601060102010201020104010401020102012a0108010201020104010a02"
     "1e0104010401040102010401020106010202040106010601080102010a01040102010201"
     "060128010a0106010602060100"},
};
// clang-format on

SamplerConfig V2Config(SamplerKind kind) {
  SamplerConfig config;
  config.kind = kind;
  config.footprint_bound_bytes = 256;
  config.expected_partition_size = 600;
  config.bernoulli_rate = 0.1;
  return config;
}

std::vector<Value> V2Stream() {
  std::vector<Value> values;
  for (int i = 0; i < 3000; ++i) {
    values.push_back(static_cast<Value>((i * 37) % (i < 100 ? 17 : 251)) - 8);
  }
  return values;
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(SamplerStateTest, Version2RecordsResumeBitIdentically) {
  const std::vector<Value> values = V2Stream();
  const std::span<const Value> all(values);
  for (const V2State& v2 : kV2States) {
    const SamplerConfig config = V2Config(v2.kind);
    AnySampler reference(config, Pcg64(0x5EED));
    reference.AddBatch(all);
    const std::string want = v2.final_hex != nullptr
                                 ? FromHex(v2.final_hex)
                                 : SerializedBytes(reference.Finalize());

    // The version-3 record of the same point: the same fields, histograms
    // packed.
    AnySampler before(config, Pcg64(0x5EED));
    before.AddBatch(all.first(v2.split));
    const std::string v3 =
        v2.v3_hex != nullptr ? FromHex(v2.v3_hex) : before.SaveState();
    const std::string state = FromHex(v2.hex);
    ASSERT_EQ(state[4], '\x02');
    ASSERT_EQ(v3[4], static_cast<char>(kSamplerStateVersion));

    Result<AnySampler> resumed = AnySampler::LoadState(state);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed.value().elements_seen(), v2.split);
    EXPECT_EQ(resumed.value().SaveState(), v3);
    resumed.value().AddBatch(all.subspan(v2.split));
    EXPECT_EQ(SerializedBytes(resumed.value().Finalize()), want)
        << SamplerKindToString(v2.kind) << " split " << v2.split;
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
