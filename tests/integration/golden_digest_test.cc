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
//   * a serial left fold of MergeSamples over six partitions on one RNG,
//   * a pairwise tree of MergeSamples over the same six on one RNG;
// and, per sampler, memoized Warehouse::MergedSample windows (cold, warm
// and overlapping). Merges with an exhaustive side have rows of their own:
// HBMerge and HRMerge of small partitions, and the windows over leaves
// that every sampler keeps whole. One more table pins MergeAll to the
// warehouse merge of the same samples.
//
// Next to the byte digests, each row pins a "contents" digest: what the
// samples hold (entries, counts, phase, q, parent size, footprint bound),
// hashed from fixed-width fields rather than from any codec's bytes. A
// change to the wire layout re-pins the byte digests and must leave the
// contents column as it is; a change to the sampling algorithms moves both.
//
// On a mismatch the test prints the digest it computed; a deliberate
// format or algorithm change updates the table and says why.

#include <bit>
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

// The decoded contents of `sample` as fixed-width little-endian fields,
// appended to `out`: phase, parent size, the bits of q, footprint bound,
// entry count, then every (value, count). No codec is involved.
void AppendContents(const PartitionSample& sample, std::string* out) {
  const auto put = [out](uint64_t v) {
    for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  put(static_cast<uint64_t>(sample.phase()));
  put(sample.parent_size());
  put(std::bit_cast<uint64_t>(sample.sampling_rate()));
  put(sample.footprint_bound_bytes());
  put(sample.histogram().distinct_count());
  for (const auto& [v, n] : sample.histogram().entries()) {
    put(static_cast<uint64_t>(v));
    put(n);
  }
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

// The paper's serial pairwise merges over `samples` on one RNG stream.
Result<PartitionSample> LeftFold(
    const std::vector<const PartitionSample*>& samples,
    const MergeOptions& options, Pcg64& rng) {
  PartitionSample acc = *samples[0];
  for (size_t i = 1; i < samples.size(); ++i) {
    SAMPWH_ASSIGN_OR_RETURN(acc,
                            MergeSamples(acc, *samples[i], options, rng));
  }
  return acc;
}

// A pairwise tree over samples[begin, end) on one RNG stream: the left
// half, then the right, then their join.
Result<PartitionSample> PairwiseTree(
    const std::vector<const PartitionSample*>& samples, size_t begin,
    size_t end, const MergeOptions& options, Pcg64& rng) {
  if (end - begin == 1) return *samples[begin];
  const size_t mid = begin + (end - begin) / 2;
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample left,
                          PairwiseTree(samples, begin, mid, options, rng));
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample right,
                          PairwiseTree(samples, mid, end, options, rng));
  return MergeSamples(left, right, options, rng);
}

struct Digests {
  uint64_t sample;
  uint64_t state;
  uint64_t left_fold;
  uint64_t balanced;
  // Contents of the sample, of the half-way state resumed and finalized,
  // and of both merges, folded into one digest.
  uint64_t contents;
};

Digests Compute(SamplerKind kind, uint64_t f_kib, Domain domain) {
  const SamplerConfig config = Config(kind, f_kib);
  std::vector<PartitionSample> samples;
  Digests d{};
  std::string contents;
  for (uint64_t part = 0; part < kPartitions; ++part) {
    const std::vector<Value> values = PartitionValues(domain, part);
    AnySampler sampler(config, Pcg64(0x5A3F + part));
    const std::span<const Value> all(values);
    sampler.AddBatch(all.first(values.size() / 2));
    if (part == 0) {
      const std::string state = sampler.SaveState();
      d.state = Fnv1a(state);
      auto resumed = AnySampler::LoadState(state);
      EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
      if (resumed.ok()) AppendContents(resumed.value().Finalize(), &contents);
    }
    sampler.AddBatch(all.subspan(values.size() / 2));
    samples.push_back(sampler.Finalize());
  }
  d.sample = Fnv1a(Bytes(samples[0]));
  AppendContents(samples[0], &contents);

  std::vector<const PartitionSample*> inputs;
  for (const PartitionSample& s : samples) inputs.push_back(&s);
  MergeOptions options;
  options.footprint_bound_bytes = f_kib * 1024;
  Pcg64 left_rng(0xF01D);
  const auto left = LeftFold(inputs, options, left_rng);
  EXPECT_TRUE(left.ok()) << left.status().ToString();
  d.left_fold = left.ok() ? Fnv1a(Bytes(left.value())) : 0;
  Pcg64 balanced_rng(0xBA1A);
  const auto balanced =
      PairwiseTree(inputs, 0, inputs.size(), options, balanced_rng);
  EXPECT_TRUE(balanced.ok()) << balanced.status().ToString();
  d.balanced = balanced.ok() ? Fnv1a(Bytes(balanced.value())) : 0;
  if (left.ok()) AppendContents(left.value(), &contents);
  if (balanced.ok()) AppendContents(balanced.value(), &contents);
  d.contents = Fnv1a(contents);
  return d;
}

struct GoldenRow {
  SamplerKind kind;
  uint64_t f_kib;
  Domain domain;
  Digests want;
};

// Byte digests re-pinned for the packed histogram layout (SWS2 samples,
// version-3 sampler state); the contents column was recorded before that
// change and did not move with it. The rows whose samples, states or
// merges pass through a reservoir purge were then re-pinned in both
// columns when the selection purge replaced Fig. 4's loop: the same law,
// different draws.
// clang-format off
const GoldenRow kGolden[] = {
    {kHB, 1, kDup,
     {0x418518443a29adeaULL, 0x0659c04e127fcc12ULL,
      0xab670e040719371dULL, 0xab670e040719371dULL,
      0xcba3801c0c892fe0ULL}},
    {kHB, 1, kMid,
     {0xd29de4973af0b13fULL, 0xdd1d5304b7660eafULL,
      0xd5476f1cce27b038ULL, 0x99088996109a9510ULL,
      0x7988c2d5d7e87201ULL}},
    {kHB, 1, kWide,
     {0xe45e5c5bcea19976ULL, 0xd68ee1540514f537ULL,
      0x108a25064141454dULL, 0x1a042888acad04cfULL,
      0x1fda1de463d830a7ULL}},
    {kHB, 8, kDup,
     {0xf9da69a3a302b672ULL, 0x03c4bf909f3e823aULL,
      0xc44e2bb836bf8685ULL, 0xc44e2bb836bf8685ULL,
      0x0762f3d53d3ca2d8ULL}},
    {kHB, 8, kMid,
     {0x96168121bfba63abULL, 0x3e9f947ac992bab1ULL,
      0xd5c8db06464108e3ULL, 0x2f3f676c2a86e01dULL,
      0x83d40ad4e6f033b9ULL}},
    {kHB, 8, kWide,
     {0xc8d065de02031cdfULL, 0x03b66d71cb183d8bULL,
      0x8122016ad252c495ULL, 0xafce1814573ebc00ULL,
      0x1c661b23b923acc5ULL}},
    {kHB, 32, kDup,
     {0x09c57f8e254b293aULL, 0xccd3d0a41b5899c2ULL,
      0x6f2a2444d38237c7ULL, 0x6f2a2444d38237c7ULL,
      0xc64c8916070dd6d8ULL}},
    {kHB, 32, kMid,
     {0xb27d409a83e001e9ULL, 0x23690fcc8e73e2c7ULL,
      0x1a9f6c5645ef40f2ULL, 0x38f038d7d0fa90bcULL,
      0x1723c9f273fa23e8ULL}},
    {kHB, 32, kWide,
     {0xf0e7b1d2edaa9befULL, 0xb3c7caccaf168a55ULL,
      0x2fd59445733cde6eULL, 0x2a8fc96ef69422edULL,
      0xa0a175857684684fULL}},
    {kHR, 1, kDup,
     {0x418518443a29adeaULL, 0xc80d823934905d93ULL,
      0xab670e040719371dULL, 0xab670e040719371dULL,
      0xcba3801c0c892fe0ULL}},
    {kHR, 1, kMid,
     {0x800e4b9100340733ULL, 0xdb35fb8ff5f74275ULL,
      0xf3ed48919408cbf4ULL, 0x1a100dde134e976bULL,
      0x4a9c2bd10c58cf4dULL}},
    {kHR, 1, kWide,
     {0x510a8a41b4fb4cb2ULL, 0xd9ec7bb6a01442a2ULL,
      0x9d69f33f2c443169ULL, 0xf576b30f0d1327bcULL,
      0xd5dd97a79407d90aULL}},
    {kHR, 8, kDup,
     {0xf9da69a3a302b672ULL, 0xf7ab08a7abe2feebULL,
      0xc44e2bb836bf8685ULL, 0xc44e2bb836bf8685ULL,
      0x0762f3d53d3ca2d8ULL}},
    {kHR, 8, kMid,
     {0x678290ca888f4ee0ULL, 0x76385186a9b52cc8ULL,
      0x1299d75d5c793d77ULL, 0xd68e408fbad1fae7ULL,
      0x3c1a9f5c0da33ecbULL}},
    {kHR, 8, kWide,
     {0xf4fe25d2477636b1ULL, 0xd43ab52716aabf61ULL,
      0x2debe8d977aa63a4ULL, 0xe0f32932dde0e1d5ULL,
      0xd2c1a31f26c3659eULL}},
    {kHR, 32, kDup,
     {0x09c57f8e254b293aULL, 0x2ee0f43864c41911ULL,
      0x6f2a2444d38237c7ULL, 0x6f2a2444d38237c7ULL,
      0xc64c8916070dd6d8ULL}},
    {kHR, 32, kMid,
     {0x8df6ca718e462419ULL, 0xfe05c720f2729f14ULL,
      0xe973213d4e71fb3cULL, 0xa6368fee2bf54e0eULL,
      0xbd70d33d0ebe33dbULL}},
    {kHR, 32, kWide,
     {0xdb4f106a8f6ac9e6ULL, 0xef3e89b641baae0cULL,
      0xfd3ad26307733040ULL, 0x07f18c9a79ed6aadULL,
      0x7813055222dd5d28ULL}},
    {kSB, 1, kDup,
     {0x8acc6bbe1eef175bULL, 0x54f92857d9641594ULL,
      0xe96e675261553aa8ULL, 0xb5e153a3e1113c68ULL,
      0x6d97171be27dde22ULL}},
    {kSB, 1, kMid,
     {0x4ffd2aef691a6ffbULL, 0xfe494304db3902b6ULL,
      0x4ffa1d2a2254e342ULL, 0x3d383292dea7077eULL,
      0x8cf701550e2134baULL}},
    {kSB, 1, kWide,
     {0x6e5d063cddbd91c7ULL, 0x90b15abeb40c5ce5ULL,
      0xbd7a3d5f8bd9d649ULL, 0xe6df1186b89f530bULL,
      0x03db3eb4ceb046b3ULL}},
    {kSB, 8, kDup,
     {0x8acc6bbe1eef175bULL, 0x54f92857d9641594ULL,
      0xd1e3da3740988497ULL, 0x4b165bbc7a30f887ULL,
      0x76a2837cfb5f909cULL}},
    {kSB, 8, kMid,
     {0x4ffd2aef691a6ffbULL, 0xfe494304db3902b6ULL,
      0x8c5bc2e1b3afea90ULL, 0x0373d6ed154b33feULL,
      0x78ae15a5367ba72bULL}},
    {kSB, 8, kWide,
     {0x6e5d063cddbd91c7ULL, 0x90b15abeb40c5ce5ULL,
      0xe25e4b5ecb77f008ULL, 0xc16545d7ddf5d3d6ULL,
      0x72338122c8344812ULL}},
    {kSB, 32, kDup,
     {0x8acc6bbe1eef175bULL, 0x54f92857d9641594ULL,
      0x23107151c13a3fc0ULL, 0xe1535260bbc1fc20ULL,
      0x19f60a94b5997106ULL}},
    {kSB, 32, kMid,
     {0x4ffd2aef691a6ffbULL, 0xfe494304db3902b6ULL,
      0xefcc75e58b84dd4bULL, 0xb9de90db794fa6ffULL,
      0x853b4ee52df8c579ULL}},
    {kSB, 32, kWide,
     {0x6e5d063cddbd91c7ULL, 0x90b15abeb40c5ce5ULL,
      0xe51cda8edd9cce3eULL, 0x55dff2b8e0aaa00bULL,
      0xb6a55f7f50ac3fbdULL}},
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
    EXPECT_EQ(got.contents, row.want.contents) << label << " contents";
    if (got.sample != row.want.sample || got.state != row.want.state ||
        got.left_fold != row.want.left_fold ||
        got.balanced != row.want.balanced ||
        got.contents != row.want.contents) {
      std::printf("    {k%s, %" PRIu64 ", %s,\n     {0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL,\n      0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL,\n      0x%016" PRIx64
                  "ULL}},\n",
                  std::string(SamplerKindToString(row.kind)).c_str(),
                  row.f_kib, DomainName(row.domain), got.sample, got.state,
                  got.left_fold, got.balanced, got.contents);
    }
    ++rows;
  }
  // 3 samplers x 3 footprint bounds x 3 domains.
  EXPECT_EQ(rows, 27);
}

// The bytes and the decoded contents of one or more merged answers.
struct AnswerDigests {
  uint64_t bytes;
  uint64_t contents;
};

// Memoized windows through the warehouse: a cold query, the same query
// warm, and an overlapping window that reuses memoized subtrees. Each
// digest folds all the answers for one sampler kind: their bytes, and
// their contents. Each of the 8 partitions holds the first
// `per_partition` values of its kMid stream; merges run under
// `merge_kib` KiB.
AnswerDigests WarehouseWindowsDigest(SamplerKind kind, uint64_t per_partition,
                                     uint64_t merge_kib) {
  WarehouseOptions options;
  options.sampler = Config(kind, 8);
  options.merge.footprint_bound_bytes = merge_kib * 1024;
  options.merge_memo_bytes = 8ull << 20;
  options.seed = 0x60D;
  Warehouse wh(options);
  EXPECT_TRUE(wh.CreateDataset("ds").ok());
  std::vector<Value> values;
  for (uint64_t part = 0; part < 8; ++part) {
    const std::vector<Value> p = PartitionValues(Domain::kMidSize, part);
    values.insert(values.end(), p.begin(), p.begin() + per_partition);
  }
  const auto ids = wh.IngestBatch("ds", values, 8);
  EXPECT_TRUE(ids.ok());
  if (!ids.ok()) return {};
  const std::vector<PartitionId>& all = ids.value();
  const std::vector<std::vector<PartitionId>> windows = {
      {all.begin(), all.begin() + 4},
      {all.begin(), all.begin() + 4},
      {all.begin() + 2, all.end()},
      all,
  };
  std::string folded;
  std::string contents;
  for (const auto& window : windows) {
    const auto merged = wh.MergedSample("ds", window);
    EXPECT_TRUE(merged.ok()) << merged.status().ToString();
    if (!merged.ok()) continue;
    folded += Bytes(merged.value());
    AppendContents(merged.value(), &contents);
  }
  EXPECT_GT(wh.GetCacheStats().merge_memo.hits, 0u);
  return {Fnv1a(folded), Fnv1a(contents)};
}

TEST(GoldenDigestTest, MemoizedWarehouseWindowsMatchPinnedBytes) {
  // Re-pinned, bytes and contents, for the selection purge.
  const struct {
    SamplerKind kind;
    AnswerDigests want;
  } kWindows[] = {
      {kHB, {0x0cc13ca7ae2c8fd6ULL, 0x418e7096fb516c3aULL}},
      {kHR, {0xbbd2b1409f6272b7ULL, 0x2f2b42a2079f4fd8ULL}},
      {kSB, {0x6f6fd4adf40252a1ULL, 0x77a2144368e7ce99ULL}},
  };
  for (const auto& row : kWindows) {
    const AnswerDigests got =
        WarehouseWindowsDigest(row.kind, kElementsPerPartition, 64);
    EXPECT_EQ(got.bytes, row.want.bytes) << SamplerKindToString(row.kind);
    EXPECT_EQ(got.contents, row.want.contents)
        << SamplerKindToString(row.kind) << " contents";
    if (got.bytes != row.want.bytes || got.contents != row.want.contents) {
      std::printf("      {k%s, {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL}},\n",
                  std::string(SamplerKindToString(row.kind)).c_str(),
                  got.bytes, got.contents);
    }
  }
}

// --- MergeAll is the warehouse merge tree ---------------------------------
//
// Six partitions of one row's stream, rolled in at ids 0..5 of the dataset
// kMergeAllDataset in a warehouse seeded with kMergeAllSeed and merged
// under the row's F. The pins were recorded through
// Warehouse::MergedSample; MergeAll of the same samples under the same
// seed and options must answer them too.

constexpr uint64_t kMergeAllSeed = 0xA11;

std::vector<PartitionSample> SixSamples(SamplerKind kind, uint64_t f_kib,
                                        Domain domain) {
  std::vector<PartitionSample> samples;
  for (uint64_t part = 0; part < kPartitions; ++part) {
    AnySampler sampler(Config(kind, f_kib), Pcg64(0x5A3F + part));
    sampler.AddBatch(PartitionValues(domain, part));
    samples.push_back(sampler.Finalize());
  }
  return samples;
}

AnswerDigests Digest(const PartitionSample& sample) {
  std::string contents;
  AppendContents(sample, &contents);
  return {Fnv1a(Bytes(sample)), Fnv1a(contents)};
}

AnswerDigests WarehouseSixDigest(const std::vector<PartitionSample>& samples,
                                 uint64_t f_kib) {
  WarehouseOptions options;
  options.merge.footprint_bound_bytes = f_kib * 1024;
  options.seed = kMergeAllSeed;
  Warehouse wh(options);
  const DatasetId dataset(kMergeAllDataset);
  EXPECT_TRUE(wh.CreateDataset(dataset).ok());
  std::vector<PartitionId> ids;
  for (PartitionId id = 0; id < samples.size(); ++id) {
    EXPECT_TRUE(wh.RollInAt(dataset, id, samples[id]).ok());
    ids.push_back(id);
  }
  const auto merged = wh.MergedSample(dataset, ids);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  return merged.ok() ? Digest(merged.value()) : AnswerDigests{};
}

TEST(GoldenDigestTest, MergeAllMatchesWarehouseMergedSample) {
  const struct {
    SamplerKind kind;
    uint64_t f_kib;
    Domain domain;
    AnswerDigests want;
  } kRows[] = {
      {kHB, 8, kMid, {0x7b88c5c21d0864f4ULL, 0x91ff739e9f234d78ULL}},
      {kHR, 8, kMid, {0xcb566a4c75d9e33eULL, 0x9130a2296003f5c9ULL}},
      {kSB, 8, kMid, {0x73c5c695eeaa1ff9ULL, 0x3f42754bbdd85273ULL}},
      {kHB, 1, kWide, {0x06ea08a2695f46e2ULL, 0x3bb14ac234b65377ULL}},
      {kHR, 1, kWide, {0x79e5a33c8d229b85ULL, 0x9a85a71460485edfULL}},
      {kSB, 1, kWide, {0x595d2daad2dcaae9ULL, 0x6e268bb2dc97fd51ULL}},
  };
  for (const auto& row : kRows) {
    const std::vector<PartitionSample> samples =
        SixSamples(row.kind, row.f_kib, row.domain);
    const AnswerDigests got = WarehouseSixDigest(samples, row.f_kib);
    const std::string label = std::string(SamplerKindToString(row.kind)) +
                              " F=" + std::to_string(row.f_kib) + "KiB " +
                              DomainName(row.domain);
    EXPECT_EQ(got.bytes, row.want.bytes) << label;
    EXPECT_EQ(got.contents, row.want.contents) << label << " contents";
    std::vector<const PartitionSample*> inputs;
    for (const PartitionSample& s : samples) inputs.push_back(&s);
    MergeOptions options;
    options.footprint_bound_bytes = row.f_kib * 1024;
    const auto all = MergeAll(inputs, options, kMergeAllSeed);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    const AnswerDigests all_got = Digest(all.value());
    EXPECT_EQ(all_got.bytes, row.want.bytes) << label << " MergeAll";
    EXPECT_EQ(all_got.contents, row.want.contents)
        << label << " MergeAll contents";
    if (got.bytes != row.want.bytes || got.contents != row.want.contents) {
      std::printf("      {k%s, %" PRIu64 ", %s, {0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL}},\n",
                  std::string(SamplerKindToString(row.kind)).c_str(),
                  row.f_kib, DomainName(row.domain), got.bytes,
                  got.contents);
    }
  }
}

// --- Merges with an exhaustive side ---------------------------------------
//
// The rows above hold exhaustive partitions only in kDup, whose 40 values
// always join within F. These rows merge small kMid partitions, which
// every sampler keeps whole at F = 8 KiB (n_F = 1,024), with HBMerge and
// HRMerge called directly: two exhaustive sides whose join fits (300 + 300
// values), two whose join breaks F (800 + 800), an exhaustive side beside
// an HB Bernoulli sample of 20,000 values, and one beside an HR reservoir
// sample of 20,000 values.

enum class Pair {
  kJoinFits,
  kJoinOverflows,
  kBesideBernoulli,
  kBesideReservoir,
};

const char* PairName(Pair pair) {
  switch (pair) {
    case Pair::kJoinFits:
      return "kJoinFits";
    case Pair::kJoinOverflows:
      return "kJoinOverflows";
    case Pair::kBesideBernoulli:
      return "kBesideBernoulli";
    case Pair::kBesideReservoir:
      return "kBesideReservoir";
  }
  return "?";
}

// The sample `kind` keeps of the first `n` kMid values of partition `part`
// at F = 8 KiB.
PartitionSample SmallSample(SamplerKind kind, uint64_t part, uint64_t n) {
  const std::vector<Value> values = PartitionValues(Domain::kMidSize, part);
  AnySampler sampler(Config(kind, 8), Pcg64(0xE5 + part));
  sampler.AddBatch(std::span<const Value>(values).first(n));
  return sampler.Finalize();
}

AnswerDigests ExhaustiveMergeDigest(bool hr, Pair pair) {
  PartitionSample s1, s2;
  switch (pair) {
    case Pair::kJoinFits:
      s1 = SmallSample(kHB, 0, 300);
      s2 = SmallSample(kHB, 1, 300);
      EXPECT_LE(s1.histogram().JoinedFootprintBytes(s2.histogram()),
                8 * 1024u);
      break;
    case Pair::kJoinOverflows:
      s1 = SmallSample(kHB, 0, 800);
      s2 = SmallSample(kHB, 1, 800);
      EXPECT_GT(s1.histogram().JoinedFootprintBytes(s2.histogram()),
                8 * 1024u);
      break;
    case Pair::kBesideBernoulli:
      s1 = SmallSample(kHB, 0, 300);
      s2 = SmallSample(kHB, 1, kElementsPerPartition);
      EXPECT_EQ(s2.phase(), SamplePhase::kBernoulli);
      break;
    case Pair::kBesideReservoir:
      s1 = SmallSample(kHR, 0, kElementsPerPartition);
      s2 = SmallSample(kHR, 1, 300);
      EXPECT_EQ(s1.phase(), SamplePhase::kReservoir);
      break;
  }
  EXPECT_EQ(pair == Pair::kBesideReservoir ? s2.phase() : s1.phase(),
            SamplePhase::kExhaustive);
  if (pair == Pair::kJoinFits || pair == Pair::kJoinOverflows) {
    EXPECT_EQ(s2.phase(), SamplePhase::kExhaustive);
  }
  MergeOptions options;
  options.footprint_bound_bytes = 8 * 1024;
  Pcg64 rng(0xE7A);
  const auto merged =
      hr ? HRMerge(s1, s2, options, rng) : HBMerge(s1, s2, options, rng);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  if (!merged.ok()) return {};
  std::string contents;
  AppendContents(merged.value(), &contents);
  return {Fnv1a(Bytes(merged.value())), Fnv1a(contents)};
}

TEST(GoldenDigestTest, ExhaustiveSideMergesMatchPinnedBytes) {
  // Re-pinned, bytes and contents, when the merges stopped replaying an
  // exhaustive side into a resumed sampler; the joins that fit kept their
  // pins. HBMerge hands a reservoir side to HRMerge, so both
  // kBesideReservoir rows pin one merge.
  const struct {
    bool hr;
    Pair pair;
    AnswerDigests want;
  } kRows[] = {
      {false, Pair::kJoinFits,
       {0xfe50c089e0519034ULL, 0x5932a3b7968e8a66ULL}},
      {false, Pair::kJoinOverflows,
       {0x06935c837a8329acULL, 0xc90d98087461e4fdULL}},
      {false, Pair::kBesideBernoulli,
       {0xe6fdac8da7682317ULL, 0xf9fe70f01ba2164cULL}},
      {false, Pair::kBesideReservoir,
       {0x7732a284d3e9c34eULL, 0x5d91476f059bf052ULL}},
      {true, Pair::kJoinFits,
       {0xfe50c089e0519034ULL, 0x5932a3b7968e8a66ULL}},
      {true, Pair::kJoinOverflows,
       {0x586016619d7953a2ULL, 0x1c1151259a775a37ULL}},
      {true, Pair::kBesideBernoulli,
       {0xfd6e1d7da825d484ULL, 0xebbd6c9ad2d7e078ULL}},
      {true, Pair::kBesideReservoir,
       {0x7732a284d3e9c34eULL, 0x5d91476f059bf052ULL}},
  };
  for (const auto& row : kRows) {
    const AnswerDigests got = ExhaustiveMergeDigest(row.hr, row.pair);
    const std::string label =
        std::string(row.hr ? "HRMerge " : "HBMerge ") + PairName(row.pair);
    EXPECT_EQ(got.bytes, row.want.bytes) << label;
    EXPECT_EQ(got.contents, row.want.contents) << label << " contents";
    if (got.bytes != row.want.bytes || got.contents != row.want.contents) {
      std::printf("      {%s, Pair::%s, {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL}},\n",
                  row.hr ? "true" : "false", PairName(row.pair), got.bytes,
                  got.contents);
    }
  }
}

TEST(GoldenDigestTest, ExhaustiveLeafWindowsMatchPinnedBytes) {
  // The windows above over partitions of 400 values, which every sampler
  // keeps whole, merged under the samplers' F = 8 KiB: the 2-partition
  // subtrees join within F, wider ones break it. Merges dispatch on the
  // inputs' phases, so both kinds' leaves go through the same merges and
  // pin the same digests. Re-pinned, bytes and contents, when the merges
  // stopped replaying exhaustive sides.
  const struct {
    SamplerKind kind;
    AnswerDigests want;
  } kWindows[] = {
      {kHB, {0x519b3e4621dd17beULL, 0xeb1f435b19a32453ULL}},
      {kHR, {0x519b3e4621dd17beULL, 0xeb1f435b19a32453ULL}},
  };
  for (const auto& row : kWindows) {
    const AnswerDigests got = WarehouseWindowsDigest(row.kind, 400, 8);
    EXPECT_EQ(got.bytes, row.want.bytes) << SamplerKindToString(row.kind);
    EXPECT_EQ(got.contents, row.want.contents)
        << SamplerKindToString(row.kind) << " contents";
    if (got.bytes != row.want.bytes || got.contents != row.want.contents) {
      std::printf("      {k%s, {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL}},\n",
                  std::string(SamplerKindToString(row.kind)).c_str(),
                  got.bytes, got.contents);
    }
  }
}

}  // namespace
}  // namespace sampwh
