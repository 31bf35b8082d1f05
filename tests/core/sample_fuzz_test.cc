// Robustness fuzzing for the PartitionSample wire format: random byte
// mutations, truncations and garbage must never crash the decoder — every
// outcome is either a clean error Status or a sample that passes
// Validate(). The decoder is canonical, so every input it accepts must
// also re-encode to exactly the bytes it consumed. (Deterministic seeds:
// this is a reproducible mini-fuzzer, not an OSS-Fuzz harness.)

#include <string>

#include <gtest/gtest.h>

#include "src/core/sample.h"
#include "src/util/random.h"

namespace sampwh {
namespace {

PartitionSample ReferenceSample(uint64_t seed) {
  Pcg64 rng(seed);
  CompactHistogram h;
  const uint64_t distinct = 1 + rng.UniformInt(200);
  for (uint64_t i = 0; i < distinct; ++i) {
    h.Insert(rng.UniformRange(-1000000, 1000000), 1 + rng.UniformInt(5));
  }
  const uint64_t total = h.total_count();
  // Half the samples carry a footprint bound just above their footprint,
  // so mutated entry counts meet the bound check too.
  const uint64_t bound =
      rng.UniformInt(2) == 0 ? 0 : h.footprint_bytes() + rng.UniformInt(64);
  switch (rng.UniformInt(3)) {
    case 0:
      return PartitionSample::MakeExhaustive(std::move(h), total, bound);
    case 1:
      return PartitionSample::MakeBernoulli(std::move(h), total * 10,
                                            rng.NextDouble(), bound);
    default:
      return PartitionSample::MakeReservoir(std::move(h), total * 10, bound);
  }
}

std::string SerializeReference(uint64_t seed) {
  BinaryWriter w;
  ReferenceSample(seed).SerializeTo(&w);
  return w.Release();
}

void ExpectNoCrash(const std::string& bytes) {
  BinaryReader reader(bytes);
  const Result<PartitionSample> decoded =
      PartitionSample::DeserializeFrom(&reader);
  if (!decoded.ok()) return;
  EXPECT_TRUE(decoded.value().Validate().ok());
  BinaryWriter again;
  decoded.value().SerializeTo(&again);
  EXPECT_EQ(again.buffer(),
            std::string_view(bytes).substr(0, bytes.size() -
                                                  reader.remaining()))
      << "an accepted input is not the canonical encoding";
}

TEST(SampleFuzzTest, SingleByteMutationsNeverCrash) {
  Pcg64 rng(1);
  for (int round = 0; round < 200; ++round) {
    const std::string reference = SerializeReference(100 + round);
    for (int mutation = 0; mutation < 20; ++mutation) {
      std::string bytes = reference;
      const size_t pos = static_cast<size_t>(rng.UniformInt(bytes.size()));
      bytes[pos] = static_cast<char>(rng.UniformInt(256));
      ExpectNoCrash(bytes);
    }
  }
}

TEST(SampleFuzzTest, TruncationsNeverCrash) {
  for (int round = 0; round < 100; ++round) {
    const std::string reference = SerializeReference(500 + round);
    for (size_t len = 0; len < reference.size();
         len += 1 + reference.size() / 37) {
      ExpectNoCrash(reference.substr(0, len));
    }
  }
}

TEST(SampleFuzzTest, RandomGarbageNeverCrashes) {
  Pcg64 rng(2);
  for (int round = 0; round < 500; ++round) {
    std::string bytes(rng.UniformInt(200), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
    ExpectNoCrash(bytes);
  }
}

TEST(SampleFuzzTest, ByteSwapsNeverCrash) {
  Pcg64 rng(3);
  for (int round = 0; round < 200; ++round) {
    std::string bytes = SerializeReference(900 + round);
    if (bytes.size() < 2) continue;
    const size_t i = static_cast<size_t>(rng.UniformInt(bytes.size()));
    const size_t j = static_cast<size_t>(rng.UniformInt(bytes.size()));
    std::swap(bytes[i], bytes[j]);
    ExpectNoCrash(bytes);
  }
}

TEST(SampleFuzzTest, EveryMutationOfTheHeadAndTailIsCanonicalOrRejected) {
  // The header, the entry count, the first value and the first block's
  // width sit in the first bytes; the bitmap and counts in the last. Every
  // value of each of those bytes is tried.
  for (int round = 0; round < 8; ++round) {
    const std::string reference = SerializeReference(2100 + round);
    for (size_t pos = 0; pos < reference.size(); ++pos) {
      if (pos >= 32 && pos + 32 < reference.size()) continue;
      for (int b = 0; b < 256; ++b) {
        std::string bytes = reference;
        bytes[pos] = static_cast<char>(b);
        ExpectNoCrash(bytes);
      }
    }
  }
}

TEST(SampleFuzzTest, EntryCountBeyondTheFootprintBoundIsRejectedEarly) {
  // A bounded SWS2 header whose histogram claims more entries than n_F =
  // bound / 8 — followed by enough bytes to pass the input-size check —
  // is Corruption before any entry is allocated.
  for (const uint64_t claimed : {uint64_t{5}, uint64_t{1} << 40}) {
    BinaryWriter w;
    w.PutFixed32(0x53575332);  // "SWS2"
    w.PutVarint64(static_cast<uint64_t>(SamplePhase::kReservoir));
    w.PutVarint64(1000);  // parent size
    w.PutDouble(1.0);
    w.PutVarint64(32);  // bound: n_F = 4
    w.PutVarint64(claimed);
    std::string bytes = w.Release();
    bytes.append(64, '\0');
    const Result<PartitionSample> decoded =
        PartitionSample::DeserializeWhole(bytes);
    EXPECT_TRUE(decoded.status().IsCorruption()) << claimed;
    EXPECT_NE(decoded.status().message().find("bound"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(SampleFuzzTest, UnmutatedReferenceAlwaysDecodes) {
  for (int round = 0; round < 100; ++round) {
    const std::string reference = SerializeReference(1300 + round);
    BinaryReader reader(reference);
    const Result<PartitionSample> decoded =
        PartitionSample::DeserializeFrom(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(reader.AtEnd());
  }
}

}  // namespace
}  // namespace sampwh
