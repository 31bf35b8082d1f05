// Golden digests of the bytes the library stores and answers. Every stored
// sample, mid-stream sampler state and merged answer is a deterministic
// function of (configuration, data, seed); these tests pin FNV-1a digests
// of those bytes so a change to an internal representation (the compact
// histogram, the codecs, the purge and merge loops) that claims to be
// byte-preserving is checked, not argued.
//
// Coverage: samplers HB, HR and SB at F in {1, 8, 32} KiB over three value
// domains (duplicate-heavy, mid-size, wide), each with
//   * the finalized sample bytes of one partition,
//   * the AnySampler::SaveState bytes half-way through that partition,
//   * MergeAll over six partitions with the left-fold strategy,
//   * MergeAll over the same six with the balanced-tree strategy;
// and, per sampler, memoized Warehouse::MergedSample windows (cold, warm
// and overlapping).
//
// On a mismatch the test prints the digest it computed; a deliberate
// format or algorithm change updates the table and says why.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_sampler.h"
#include "src/core/merge.h"
#include "src/core/sample.h"
#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {
namespace {

constexpr uint64_t kElementsPerPartition = 20000;
constexpr size_t kPartitions = 6;

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Bytes(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return writer.Release();
}

enum class Domain { kDuplicateHeavy, kMidSize, kWide };

constexpr SamplerKind kHB = SamplerKind::kHybridBernoulli;
constexpr SamplerKind kHR = SamplerKind::kHybridReservoir;
constexpr SamplerKind kSB = SamplerKind::kStratifiedBernoulli;
constexpr Domain kDup = Domain::kDuplicateHeavy;
constexpr Domain kMid = Domain::kMidSize;
constexpr Domain kWide = Domain::kWide;

const char* DomainName(Domain domain) {
  switch (domain) {
    case Domain::kDuplicateHeavy:
      return "kDup";
    case Domain::kMidSize:
      return "kMid";
    case Domain::kWide:
      return "kWide";
  }
  return "?";
}

// Values of partition `part`, drawn with the library's own PCG engine so
// the data is identical on every platform.
std::vector<Value> PartitionValues(Domain domain, uint64_t part) {
  Pcg64 rng(0x60D1E57 + part, static_cast<uint64_t>(domain));
  std::vector<Value> values(kElementsPerPartition);
  for (Value& v : values) {
    switch (domain) {
      case Domain::kDuplicateHeavy:
        v = static_cast<Value>(rng.UniformInt(40));
        break;
      case Domain::kMidSize:
        v = static_cast<Value>(rng.UniformInt(3000)) - 1000;
        break;
      case Domain::kWide:
        // Signed values spanning +-2^61: long deltas, multi-byte varints.
        v = static_cast<Value>(rng.NextUint64() >> 2) - (Value{1} << 61);
        break;
    }
  }
  return values;
}

SamplerConfig Config(SamplerKind kind, uint64_t f_kib) {
  SamplerConfig config;
  config.kind = kind;
  config.footprint_bound_bytes = f_kib * 1024;
  config.expected_partition_size = kElementsPerPartition;
  config.bernoulli_rate = 0.03;
  return config;
}

struct Digests {
  uint64_t sample;
  uint64_t state;
  uint64_t left_fold;
  uint64_t balanced;
};

Digests Compute(SamplerKind kind, uint64_t f_kib, Domain domain) {
  const SamplerConfig config = Config(kind, f_kib);
  std::vector<PartitionSample> samples;
  Digests d{};
  for (uint64_t part = 0; part < kPartitions; ++part) {
    const std::vector<Value> values = PartitionValues(domain, part);
    AnySampler sampler(config, Pcg64(0x5A3F + part));
    const std::span<const Value> all(values);
    sampler.AddBatch(all.first(values.size() / 2));
    if (part == 0) d.state = Fnv1a(sampler.SaveState());
    sampler.AddBatch(all.subspan(values.size() / 2));
    samples.push_back(sampler.Finalize());
  }
  d.sample = Fnv1a(Bytes(samples[0]));

  std::vector<const PartitionSample*> inputs;
  for (const PartitionSample& s : samples) inputs.push_back(&s);
  MergeOptions options;
  options.footprint_bound_bytes = f_kib * 1024;
  Pcg64 left_rng(0xF01D);
  const auto left =
      MergeAll(inputs, options, left_rng, MergeStrategy::kLeftFold);
  EXPECT_TRUE(left.ok()) << left.status().ToString();
  d.left_fold = left.ok() ? Fnv1a(Bytes(left.value())) : 0;
  Pcg64 balanced_rng(0xBA1A);
  const auto balanced =
      MergeAll(inputs, options, balanced_rng, MergeStrategy::kBalancedTree);
  EXPECT_TRUE(balanced.ok()) << balanced.status().ToString();
  d.balanced = balanced.ok() ? Fnv1a(Bytes(balanced.value())) : 0;
  return d;
}

struct GoldenRow {
  SamplerKind kind;
  uint64_t f_kib;
  Domain domain;
  Digests want;
};

// Recorded on the unordered_map-backed histogram; the sorted flat
// histogram must reproduce every digest.
// clang-format off
const GoldenRow kGolden[] = {
    {kHB, 1, kDup,
     {0xaa674f7a3ff8b6fcULL, 0x92c988a1d51f36ebULL,
      0x0c419690e2c0ca14ULL, 0x0c419690e2c0ca14ULL}},
    {kHB, 1, kMid,
     {0xecc361c3c33e5ec2ULL, 0x35669fdf24688392ULL,
      0x5fbd04b3de5b389fULL, 0x14005cdb65758baeULL}},
    {kHB, 1, kWide,
     {0x82aa5cf9831d8d4aULL, 0x8ba5479df2c5ead2ULL,
      0xf7b79e28051b18eaULL, 0xe1802070db5c9d44ULL}},
    {kHB, 8, kDup,
     {0x493d36ab378f1fc4ULL, 0x8f74c5d02d435ed3ULL,
      0xc6ea82a971a5ef1cULL, 0xc6ea82a971a5ef1cULL}},
    {kHB, 8, kMid,
     {0x55c4728c3c206674ULL, 0x3a05498cbb8e1bd0ULL,
      0xc93c0f74431274aaULL, 0x49680523f305bb88ULL}},
    {kHB, 8, kWide,
     {0xf64905ae672e7dd4ULL, 0x0a9f20d42fe63952ULL,
      0x80b4581651dcff74ULL, 0x627617b8d0224fdcULL}},
    {kHB, 32, kDup,
     {0xe2572081f5ce5aeaULL, 0x3278339ae0ac1389ULL,
      0xb631b9a82019a764ULL, 0xb631b9a82019a764ULL}},
    {kHB, 32, kMid,
     {0xd547fe7b142cc3b5ULL, 0x2d9f2b29409578d6ULL,
      0x0d95dd71eaf4ac33ULL, 0x61b82eecb99410f7ULL}},
    {kHB, 32, kWide,
     {0x40d84d31cef3ef05ULL, 0x8b71cfe18b6dbb56ULL,
      0x64dd7236132f4276ULL, 0x7f408667c3ad34a1ULL}},
    {kHR, 1, kDup,
     {0xaa674f7a3ff8b6fcULL, 0xb34d8e0f74c20050ULL,
      0x0c419690e2c0ca14ULL, 0x0c419690e2c0ca14ULL}},
    {kHR, 1, kMid,
     {0xa9e911f59a4b4365ULL, 0x9b71a914fa6e9698ULL,
      0x338900012ab116c9ULL, 0x79c409d3ec70f199ULL}},
    {kHR, 1, kWide,
     {0x7c2cc41605a32af2ULL, 0x43ceff2ab585253dULL,
      0xc80627533f13e552ULL, 0xa2e260a0812d4074ULL}},
    {kHR, 8, kDup,
     {0x493d36ab378f1fc4ULL, 0x80d8b07cf5218c28ULL,
      0xc6ea82a971a5ef1cULL, 0xc6ea82a971a5ef1cULL}},
    {kHR, 8, kMid,
     {0x88268f4fe614f434ULL, 0x0979ee0fa48e94a9ULL,
      0x40de04f08cebac33ULL, 0x0590a14a0b6d609dULL}},
    {kHR, 8, kWide,
     {0x083e7787e50786d7ULL, 0x255bc395332c5648ULL,
      0xb41005d7ccf3e7f8ULL, 0x63ef242438e7ed59ULL}},
    {kHR, 32, kDup,
     {0xe2572081f5ce5aeaULL, 0xd0954af89d21d958ULL,
      0xb631b9a82019a764ULL, 0xb631b9a82019a764ULL}},
    {kHR, 32, kMid,
     {0xa9ad9b68f2938e32ULL, 0x189765830bafb327ULL,
      0x59cecc9466250ce4ULL, 0xb4311c0b7f2a9b11ULL}},
    {kHR, 32, kWide,
     {0xf37d3d1c9a2c7270ULL, 0xb9f9439067d8e343ULL,
      0xd3f371d9afdb4ae7ULL, 0x35b73cf0197151a7ULL}},
    {kSB, 1, kDup,
     {0xdca512770c9667dfULL, 0xb47261746f7c6cdcULL,
      0x4223c25164951c9bULL, 0x67073efba9762780ULL}},
    {kSB, 1, kMid,
     {0x941d83e8023d0bfbULL, 0xd764eb72f60f3daaULL,
      0x393716f4aa4219f2ULL, 0x9008f31a4be2eba1ULL}},
    {kSB, 1, kWide,
     {0x4ee61e3d0039a47dULL, 0x8b37cb961132c638ULL,
      0x7adcf584e37902a1ULL, 0x503c3043ed59a024ULL}},
    {kSB, 8, kDup,
     {0xdca512770c9667dfULL, 0xb47261746f7c6cdcULL,
      0xf9017a1d7916f46bULL, 0x2d4db31c0033e469ULL}},
    {kSB, 8, kMid,
     {0x941d83e8023d0bfbULL, 0xd764eb72f60f3daaULL,
      0x0aaab2531f64f4e1ULL, 0x9ab2d49bdc57512bULL}},
    {kSB, 8, kWide,
     {0x4ee61e3d0039a47dULL, 0x8b37cb961132c638ULL,
      0x88a7c2a29b9a9bf3ULL, 0x301aef0a6e0d219aULL}},
    {kSB, 32, kDup,
     {0xdca512770c9667dfULL, 0xb47261746f7c6cdcULL,
      0x87ae545d2a785a44ULL, 0xe87517d939bb7644ULL}},
    {kSB, 32, kMid,
     {0x941d83e8023d0bfbULL, 0xd764eb72f60f3daaULL,
      0xcdd7ba02904a45c6ULL, 0xb0badc2c73079068ULL}},
    {kSB, 32, kWide,
     {0x4ee61e3d0039a47dULL, 0x8b37cb961132c638ULL,
      0x44ae7e147ae9435fULL, 0x7b761069fb1e7f99ULL}},
};
// clang-format on

TEST(GoldenDigestTest, SamplesStatesAndMergesMatchPinnedBytes) {
  int rows = 0;
  for (const GoldenRow& row : kGolden) {
    const Digests got = Compute(row.kind, row.f_kib, row.domain);
    const std::string label = std::string(SamplerKindToString(row.kind)) +
                              " F=" + std::to_string(row.f_kib) + "KiB " +
                              DomainName(row.domain);
    EXPECT_EQ(got.sample, row.want.sample) << label << " sample";
    EXPECT_EQ(got.state, row.want.state) << label << " SaveState";
    EXPECT_EQ(got.left_fold, row.want.left_fold) << label << " left fold";
    EXPECT_EQ(got.balanced, row.want.balanced) << label << " balanced";
    if (got.sample != row.want.sample || got.state != row.want.state ||
        got.left_fold != row.want.left_fold ||
        got.balanced != row.want.balanced) {
      std::printf("    {k%s, %" PRIu64 ", %s,\n     {0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL,\n      0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL}},\n",
                  std::string(SamplerKindToString(row.kind)).c_str(),
                  row.f_kib, DomainName(row.domain), got.sample, got.state,
                  got.left_fold, got.balanced);
    }
    ++rows;
  }
  // 3 samplers x 3 footprint bounds x 3 domains.
  EXPECT_EQ(rows, 27);
}

// Memoized windows through the warehouse: a cold query, the same query
// warm, and an overlapping window that reuses memoized subtrees. The
// digest folds all three answers for one sampler kind.
uint64_t WarehouseWindowsDigest(SamplerKind kind) {
  WarehouseOptions options;
  options.sampler = Config(kind, 8);
  options.merge_memo_bytes = 8ull << 20;
  options.seed = 0x60D;
  Warehouse wh(options);
  EXPECT_TRUE(wh.CreateDataset("ds").ok());
  std::vector<Value> values;
  for (uint64_t part = 0; part < 8; ++part) {
    const std::vector<Value> p = PartitionValues(Domain::kMidSize, part);
    values.insert(values.end(), p.begin(), p.end());
  }
  const auto ids = wh.IngestBatch("ds", values, 8);
  EXPECT_TRUE(ids.ok());
  if (!ids.ok()) return 0;
  const std::vector<PartitionId>& all = ids.value();
  const std::vector<std::vector<PartitionId>> windows = {
      {all.begin(), all.begin() + 4},
      {all.begin(), all.begin() + 4},
      {all.begin() + 2, all.end()},
      all,
  };
  std::string folded;
  for (const auto& window : windows) {
    const auto merged = wh.MergedSample("ds", window);
    EXPECT_TRUE(merged.ok()) << merged.status().ToString();
    if (merged.ok()) folded += Bytes(merged.value());
  }
  EXPECT_GT(wh.GetCacheStats().merge_memo.hits, 0u);
  return Fnv1a(folded);
}

TEST(GoldenDigestTest, MemoizedWarehouseWindowsMatchPinnedBytes) {
  const struct {
    SamplerKind kind;
    uint64_t want;
  } kWindows[] = {
      {kHB, 0xc8918dd661e18440ULL},
      {kHR, 0xe54adb76d5e9a54fULL},
      {kSB, 0x9eec12b98fca92cdULL},
  };
  for (const auto& row : kWindows) {
    const uint64_t got = WarehouseWindowsDigest(row.kind);
    EXPECT_EQ(got, row.want) << SamplerKindToString(row.kind);
    if (got != row.want) {
      std::printf("      {k%s, 0x%016" PRIx64 "ULL},\n",
                  std::string(SamplerKindToString(row.kind)).c_str(), got);
    }
  }
}

}  // namespace
}  // namespace sampwh
