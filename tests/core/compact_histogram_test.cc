#include "src/core/compact_histogram.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sample.h"
#include "src/util/random.h"

namespace sampwh {
namespace {

TEST(CompactHistogramTest, StartsEmpty) {
  CompactHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.distinct_count(), 0u);
  EXPECT_EQ(h.footprint_bytes(), 0u);
}

TEST(CompactHistogramTest, SingletonFootprint) {
  CompactHistogram h;
  h.Insert(42);
  EXPECT_EQ(h.total_count(), 1u);
  EXPECT_EQ(h.distinct_count(), 1u);
  EXPECT_EQ(h.footprint_bytes(), kSingletonFootprintBytes);
}

TEST(CompactHistogramTest, SingletonBecomesPair) {
  CompactHistogram h;
  h.Insert(42);
  h.Insert(42);
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_EQ(h.distinct_count(), 1u);
  EXPECT_EQ(h.footprint_bytes(), kPairFootprintBytes);
  // Third copy of the same value costs no extra footprint.
  h.Insert(42);
  EXPECT_EQ(h.footprint_bytes(), kPairFootprintBytes);
}

TEST(CompactHistogramTest, BatchInsertFootprint) {
  CompactHistogram h;
  h.Insert(1, 5);  // directly a pair
  EXPECT_EQ(h.footprint_bytes(), kPairFootprintBytes);
  h.Insert(2, 1);  // singleton
  EXPECT_EQ(h.footprint_bytes(),
            kPairFootprintBytes + kSingletonFootprintBytes);
  h.Insert(2, 3);  // singleton upgraded
  EXPECT_EQ(h.footprint_bytes(), 2 * kPairFootprintBytes);
  EXPECT_EQ(h.total_count(), 9u);
}

TEST(CompactHistogramTest, InsertZeroIsNoop) {
  CompactHistogram h;
  h.Insert(7, 0);
  EXPECT_TRUE(h.empty());
}

TEST(CompactHistogramTest, RemoveDowngradesAndErases) {
  CompactHistogram h;
  h.Insert(1, 3);
  h.Remove(1, 1);
  EXPECT_EQ(h.CountOf(1), 2u);
  EXPECT_EQ(h.footprint_bytes(), kPairFootprintBytes);
  h.Remove(1, 1);
  EXPECT_EQ(h.CountOf(1), 1u);
  EXPECT_EQ(h.footprint_bytes(), kSingletonFootprintBytes);
  h.Remove(1, 1);
  EXPECT_EQ(h.CountOf(1), 0u);
  EXPECT_EQ(h.footprint_bytes(), 0u);
  EXPECT_TRUE(h.empty());
}

TEST(CompactHistogramTest, RemoveBatchFromPair) {
  CompactHistogram h;
  h.Insert(9, 10);
  h.Remove(9, 10);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.footprint_bytes(), 0u);
}

TEST(CompactHistogramTest, CountOfAbsentValueIsZero) {
  CompactHistogram h;
  h.Insert(1);
  EXPECT_EQ(h.CountOf(2), 0u);
}

TEST(CompactHistogramTest, SortedEntriesAreSorted) {
  CompactHistogram h;
  h.Insert(30, 2);
  h.Insert(-5);
  h.Insert(10, 7);
  const auto entries = h.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (std::pair<Value, uint64_t>{-5, 1}));
  EXPECT_EQ(entries[1], (std::pair<Value, uint64_t>{10, 7}));
  EXPECT_EQ(entries[2], (std::pair<Value, uint64_t>{30, 2}));
}

TEST(CompactHistogramTest, BagRoundTrip) {
  CompactHistogram h;
  h.Insert(3, 2);
  h.Insert(1);
  h.Insert(2, 3);
  const std::vector<Value> bag = h.ToBag();
  EXPECT_EQ(bag, (std::vector<Value>{1, 2, 2, 2, 3, 3}));
  EXPECT_TRUE(CompactHistogram::FromBag(bag) == h);
}

TEST(CompactHistogramTest, JoinSumsCounts) {
  CompactHistogram a;
  a.Insert(1, 2);
  a.Insert(2);
  CompactHistogram b;
  b.Insert(2, 3);
  b.Insert(3);
  a.Join(b);
  EXPECT_EQ(a.CountOf(1), 2u);
  EXPECT_EQ(a.CountOf(2), 4u);
  EXPECT_EQ(a.CountOf(3), 1u);
  EXPECT_EQ(a.total_count(), 7u);
}

TEST(CompactHistogramTest, JoinedFootprintMatchesActualJoin) {
  CompactHistogram a;
  a.Insert(1, 2);
  a.Insert(2);
  a.Insert(5);
  CompactHistogram b;
  b.Insert(2, 3);  // upgrades a's singleton
  b.Insert(3);     // new singleton
  b.Insert(1);     // existing pair, no change
  b.Insert(6, 4);  // new pair
  const uint64_t predicted = a.JoinedFootprintBytes(b);
  a.Join(b);
  EXPECT_EQ(predicted, a.footprint_bytes());
}

TEST(CompactHistogramTest, ClearResetsEverything) {
  CompactHistogram h;
  h.Insert(1, 3);
  h.Clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.footprint_bytes(), 0u);
  EXPECT_EQ(h.distinct_count(), 0u);
}

TEST(CompactHistogramTest, EqualityIgnoresInsertionOrder) {
  CompactHistogram a;
  a.Insert(1);
  a.Insert(2, 2);
  CompactHistogram b;
  b.Insert(2, 2);
  b.Insert(1);
  EXPECT_TRUE(a == b);
  b.Insert(3);
  EXPECT_FALSE(a == b);
}

TEST(CompactHistogramTest, FootprintInvariantUnderRandomOps) {
  // Property: footprint always equals 8*singletons + 12*pairs.
  Pcg64 rng(3);
  CompactHistogram h;
  for (int step = 0; step < 20000; ++step) {
    const Value v = static_cast<Value>(rng.UniformInt(50));
    if (rng.Bernoulli(0.7) || h.CountOf(v) == 0) {
      h.Insert(v, rng.UniformInt(3) + 1);
    } else {
      h.Remove(v, 1 + rng.UniformInt(h.CountOf(v)));
    }
    if (step % 500 == 0) {
      uint64_t expected = 0;
      uint64_t total = 0;
      h.ForEach([&](Value, uint64_t n) {
        expected += (n == 1) ? kSingletonFootprintBytes : kPairFootprintBytes;
        total += n;
      });
      ASSERT_EQ(h.footprint_bytes(), expected);
      ASSERT_EQ(h.total_count(), total);
    }
  }
}

TEST(CompactHistogramTest, CodecRoundTripsTheFullInt64Span) {
  // Consecutive values more than INT64_MAX apart: the deltas are taken
  // modulo 2^64, so the codec is defined (no signed overflow) and exact.
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  CompactHistogram h;
  h.Insert(kMax, 3);
  h.Insert(0);
  h.Insert(-1, 2);
  h.Insert(kMin);
  BinaryWriter w;
  h.SerializeTo(&w);
  BinaryReader r(w.buffer());
  const auto decoded = CompactHistogram::DeserializeFrom(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(decoded.value() == h);
  EXPECT_EQ(decoded.value().entries(),
            (std::vector<CompactHistogram::Entry>{
                {kMin, 1}, {-1, 2}, {0, 1}, {kMax, 3}}));
  EXPECT_EQ(decoded.value().footprint_bytes(), h.footprint_bytes());

  // The same span through the sample codec.
  const PartitionSample sample = PartitionSample::MakeReservoir(h, 100, 0);
  BinaryWriter sw;
  sample.SerializeTo(&sw);
  BinaryReader sr(sw.buffer());
  const auto back = PartitionSample::DeserializeFrom(&sr);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value().histogram() == h);
}

// Histogram bytes in the packed layout, built by hand: varint n, the
// zig-zagged first value, one block of `gaps` at `width` bits LSB-first
// (at most 128 gaps), a one-byte count bitmap, then varint(count - 2) for
// each flagged entry. The exhaustive hand-built cases are in
// histogram_codec_diff_test.
std::string PackedBytes(uint64_t n, Value first, unsigned width,
                        const std::vector<uint64_t>& gaps, uint8_t bitmap,
                        const std::vector<uint64_t>& counts_minus_two) {
  BinaryWriter w;
  w.PutVarint64(n);
  w.PutVarintSigned64(first);
  if (!gaps.empty()) {
    const auto width_byte = static_cast<uint8_t>(width);
    w.PutRaw(&width_byte, 1);
    std::string block((width * gaps.size() + 7) / 8, '\0');
    for (size_t i = 0; i < gaps.size(); ++i) {
      for (unsigned b = 0; b < width; ++b) {
        const size_t bit = i * width + b;
        if ((gaps[i] >> b) & 1) {
          block[bit / 8] |= static_cast<char>(1 << (bit % 8));
        }
      }
    }
    w.PutRaw(block.data(), block.size());
  }
  w.PutRaw(&bitmap, 1);
  for (const uint64_t c : counts_minus_two) w.PutVarint64(c);
  return w.Release();
}

// The same histogram bytes behind a valid sample header.
std::string SampleBytes(const std::string& histogram_bytes) {
  BinaryWriter w;
  w.PutFixed32(0x53575332);  // "SWS2"
  w.PutVarint64(static_cast<uint64_t>(SamplePhase::kReservoir));
  w.PutVarint64(1000);  // parent size
  w.PutDouble(1.0);
  w.PutVarint64(0);  // unbounded footprint
  w.PutRaw(histogram_bytes.data(), histogram_bytes.size());
  return w.Release();
}

Status DecodeHistogram(const std::string& bytes) {
  BinaryReader r(bytes);
  return CompactHistogram::DeserializeFrom(&r).status();
}

Status DecodeSample(const std::string& bytes) {
  BinaryReader r(bytes);
  return PartitionSample::DeserializeFrom(&r).status();
}

constexpr uint64_t kAllOnes = std::numeric_limits<uint64_t>::max();

TEST(CompactHistogramTest, DecodeAcceptsCanonicalHandBuiltBytes) {
  // {5 x1, 8 x2}: one gap of 8 - 5 - 1 = 2 at width 2, entry 1 flagged.
  const std::string bytes = PackedBytes(2, 5, 2, {2}, 0b10, {0});
  BinaryReader r(bytes);
  const auto h = CompactHistogram::DeserializeFrom(&r);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(h.value().entries(),
            (std::vector<CompactHistogram::Entry>{{5, 1}, {8, 2}}));
  BinaryWriter again;
  h.value().SerializeTo(&again);
  EXPECT_EQ(again.buffer(), bytes);
  EXPECT_TRUE(DecodeSample(SampleBytes(bytes)).ok());
}

TEST(CompactHistogramTest, DecodeRejectsZeroDeltaDuplicate) {
  // Value 5 twice: a gap of 2^64 - 1 steps a whole turn, back onto 5.
  const std::string bytes = PackedBytes(2, 5, 64, {kAllOnes}, 0, {});
  EXPECT_TRUE(DecodeHistogram(bytes).IsCorruption());
  EXPECT_TRUE(DecodeSample(SampleBytes(bytes)).IsCorruption());
}

TEST(CompactHistogramTest, DecodeRejectsDescendingDelta) {
  // 5, 9, then a gap that wraps past the top of the range down to 7.
  const std::string bytes = PackedBytes(3, 5, 64, {3, kAllOnes - 2}, 0, {});
  EXPECT_TRUE(DecodeHistogram(bytes).IsCorruption());
  EXPECT_TRUE(DecodeSample(SampleBytes(bytes)).IsCorruption());
}

TEST(CompactHistogramTest, DecodeRejectsEntryCountBeyondInput) {
  // Claims 2^40 entries with one entry's bytes behind it: rejected before
  // any allocation is sized from the claim.
  const std::string bytes = PackedBytes(uint64_t{1} << 40, 5, 0, {}, 0, {});
  EXPECT_TRUE(DecodeHistogram(bytes).IsCorruption());
  EXPECT_TRUE(DecodeSample(SampleBytes(bytes)).IsCorruption());
  // Two entries need at least three bytes after the count (first value,
  // width byte, bitmap); two bytes cannot hold them.
  const std::string short_input = PackedBytes(2, 1, 0, {}, 0, {});
  EXPECT_TRUE(DecodeHistogram(short_input).IsCorruption());
}

TEST(CompactHistogramTest, DecodeRejectsZeroCount) {
  // A flagged count of (2^64 - 2) + 2 wraps to zero.
  const std::string bytes = PackedBytes(1, 5, 0, {}, 0b1, {kAllOnes - 1});
  EXPECT_TRUE(DecodeHistogram(bytes).IsCorruption());
  EXPECT_TRUE(DecodeSample(SampleBytes(bytes)).IsCorruption());
}

TEST(HistogramBuilderTest, BuildSortsAndKeepsFootprint) {
  HistogramBuilder b;
  b.Insert(30, 2);
  b.Insert(-5);
  b.Insert(10, 7);
  b.Insert(-5);
  EXPECT_EQ(b.CountOf(-5), 2u);
  EXPECT_EQ(b.CountOf(11), 0u);
  EXPECT_EQ(b.distinct_count(), 3u);
  EXPECT_EQ(b.total_count(), 11u);
  EXPECT_EQ(b.footprint_bytes(), 3 * kPairFootprintBytes);
  const CompactHistogram h = b.Build();
  EXPECT_EQ(h.entries(), (std::vector<CompactHistogram::Entry>{
                             {-5, 2}, {10, 7}, {30, 2}}));
  EXPECT_EQ(h.footprint_bytes(), b.footprint_bytes());
}

TEST(HistogramBuilderTest, InsertIfFitsStopsAtTheBound) {
  HistogramBuilder b;
  // Two singletons fill 16 bytes; a third value would need 8 more, but a
  // repeat of a stored value upgrades it to a pair for 4.
  EXPECT_TRUE(b.InsertIfFits(1, 20));
  EXPECT_TRUE(b.InsertIfFits(2, 20));
  EXPECT_FALSE(b.InsertIfFits(3, 20));
  EXPECT_EQ(b.CountOf(3), 0u);
  EXPECT_EQ(b.distinct_count(), 2u);
  EXPECT_TRUE(b.InsertIfFits(1, 20));
  EXPECT_EQ(b.footprint_bytes(), 20u);
  EXPECT_TRUE(b.InsertIfFits(1, 20));  // pairs grow for free
  EXPECT_FALSE(b.InsertIfFits(2, 20));
  EXPECT_EQ(b.total_count(), 4u);
}

TEST(HistogramBuilderTest, RoundTripsThroughAHistogram) {
  CompactHistogram h;
  for (Value v = -300; v < 300; v += 3) h.Insert(v, 1 + (v & 3));
  const HistogramBuilder b(h);
  EXPECT_EQ(b.total_count(), h.total_count());
  EXPECT_EQ(b.footprint_bytes(), h.footprint_bytes());
  EXPECT_TRUE(b.Build() == h);
}

}  // namespace
}  // namespace sampwh
