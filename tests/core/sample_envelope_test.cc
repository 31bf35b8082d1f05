// Round-trips of the stored sample file over every sampler phase, and a
// damage corpus proving that any single-bit flip, any truncation and any
// appended bytes in a stored sample file or a stored MANIFEST snapshot are
// rejected by the frame as Corruption — never decoded into a wrong sample
// or catalog, never a crash. (The stored frame took the place of the
// sample envelope; the suite keeps the envelope's name.)

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_sampler.h"
#include "src/core/sample.h"
#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/warehouse/catalog_log.h"

namespace sampwh {
namespace {

std::string Stored(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return EncodeFrame(writer.buffer());
}

Result<PartitionSample> DecodeStored(const std::string& file) {
  std::string_view payload;
  SAMPWH_RETURN_IF_ERROR(DecodeStoredFile(file, "ds.0.sample", &payload));
  return PartitionSample::DeserializeWhole(payload);
}

CompactHistogram MakeHistogram(
    const std::vector<std::pair<Value, uint64_t>>& entries) {
  CompactHistogram h;
  for (const auto& [v, n] : entries) h.Insert(v, n);
  return h;
}

/// One representative sample per terminal phase (paper h_i), including the
/// post-purge state of each hybrid sampler: a sampler driven past its
/// footprint bound so at least one purge/subsampling step has run.
std::vector<PartitionSample> PhaseCorpus() {
  std::vector<PartitionSample> corpus;
  corpus.push_back(PartitionSample::MakeExhaustive(
      MakeHistogram({{1, 3}, {9, 1}, {42, 6}}), 10, 4096));
  corpus.push_back(PartitionSample::MakeBernoulli(
      MakeHistogram({{2, 1}, {7, 2}}), 500, 0.01, 4096));
  corpus.push_back(PartitionSample::MakeReservoir(
      MakeHistogram({{11, 1}, {13, 1}, {17, 2}}), 1000, 4096));
  // Post-purge hybrid Bernoulli (phase 2 after at least one purge) and
  // post-purge hybrid reservoir (phase 3 after subsampling): 20k distinct
  // values against a 512-byte bound force repeated purges.
  for (SamplerKind kind :
       {SamplerKind::kHybridBernoulli, SamplerKind::kHybridReservoir}) {
    SamplerConfig config;
    config.kind = kind;
    config.footprint_bound_bytes = 512;
    config.expected_partition_size = 20000;
    AnySampler sampler(config, Pcg64(99, 7));
    for (Value v = 0; v < 20000; ++v) sampler.Add(v);
    corpus.push_back(sampler.Finalize());
  }
  return corpus;
}

/// A small stored MANIFEST snapshot: one dataset of four partitions.
std::string StoredManifest() {
  Catalog catalog;
  EXPECT_TRUE(catalog.CreateDataset("ds").ok());
  for (PartitionId id = 0; id < 4; ++id) {
    PartitionInfo info;
    info.id = id;
    info.parent_size = 100 + id;
    info.sample_size = 10;
    info.phase = SamplePhase::kReservoir;
    EXPECT_TRUE(catalog.AddPartition("ds", info).ok());
  }
  return CatalogLog::EncodeSnapshot(catalog);
}

/// The stored files the damage corpus runs over: a small sample, the
/// post-purge samples and the MANIFEST snapshot.
std::vector<std::string> StoredFiles() {
  std::vector<std::string> files;
  for (const PartitionSample& sample : PhaseCorpus()) {
    files.push_back(Stored(sample));
  }
  files.push_back(StoredManifest());
  return files;
}

Status DecodeFrameOf(const std::string& file) {
  std::string_view payload;
  return DecodeStoredFile(file, "stored", &payload);
}

TEST(SampleEnvelopeTest, EveryPhaseRoundTrips) {
  for (const PartitionSample& sample : PhaseCorpus()) {
    SCOPED_TRACE(SamplePhaseToString(sample.phase()));
    const Result<PartitionSample> decoded = DecodeStored(Stored(sample));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().phase(), sample.phase());
    EXPECT_EQ(decoded.value().parent_size(), sample.parent_size());
    EXPECT_EQ(decoded.value().size(), sample.size());
    EXPECT_TRUE(decoded.value().histogram() == sample.histogram());
    EXPECT_TRUE(decoded.value().Validate().ok());
  }
}

TEST(SampleEnvelopeTest, EnvelopeIsByteDeterministic) {
  const PartitionSample sample = PhaseCorpus().front();
  EXPECT_EQ(Stored(sample), Stored(sample));
  EXPECT_EQ(StoredManifest(), StoredManifest());
}

// Any single flipped bit anywhere in a stored file — header or payload —
// must yield Corruption, never a successful decode of damaged data.
// Exhaustive over every bit of a small sample and of the MANIFEST, so the
// header fields (length, CRC) are covered too.
TEST(SampleEnvelopeTest, EverySingleBitFlipIsRejected) {
  for (const std::string& file :
       {Stored(PartitionSample::MakeReservoir(MakeHistogram({{5, 2}, {6, 1}}),
                                              64, 4096)),
        StoredManifest()}) {
    for (size_t byte = 0; byte < file.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = file;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        const Status status = DecodeFrameOf(flipped);
        EXPECT_TRUE(status.IsCorruption())
            << "byte " << byte << " bit " << bit << " of " << file.size()
            << ": " << status.ToString();
      }
    }
  }
}

// Random multi-bit damage over the larger post-purge samples (seeded, so a
// failure reproduces), and every proper truncation of every stored file.
TEST(SampleEnvelopeTest, SeededDamageCorpusNeverDecodes) {
  Pcg64 rng(0xB17F11B5ULL, 1);
  for (const std::string& file : StoredFiles()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string damaged = file;
      const int flips = 1 + static_cast<int>(rng.NextUint64() % 8);
      for (int f = 0; f < flips; ++f) {
        const size_t pos = rng.NextUint64() % damaged.size();
        damaged[pos] =
            static_cast<char>(damaged[pos] ^ (1u << (rng.NextUint64() % 8)));
      }
      if (damaged == file) continue;  // two flips of one bit cancel
      EXPECT_TRUE(DecodeFrameOf(damaged).IsCorruption());
    }
    // Every proper truncation point (torn write) is rejected as well.
    for (size_t keep = 0; keep < file.size(); ++keep) {
      EXPECT_TRUE(DecodeFrameOf(file.substr(0, keep)).IsCorruption())
          << "kept " << keep << " of " << file.size();
    }
  }
}

TEST(SampleEnvelopeTest, AppendedTrailingBytesAreRejected) {
  for (const std::string& file : StoredFiles()) {
    EXPECT_TRUE(DecodeFrameOf(file + "extra").IsCorruption());
    EXPECT_TRUE(DecodeFrameOf(file + file).IsCorruption());
  }
}

}  // namespace
}  // namespace sampwh
