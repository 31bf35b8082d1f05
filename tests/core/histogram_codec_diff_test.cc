// Differential test of the varint kernel and the histogram codec against a
// byte-at-a-time reference (one push_back per byte written, one Status per
// varint read), kept here and nowhere else. Both must agree on every
// input: identical bytes out of the encoders; identical accept or reject,
// StatusCode, entries and bytes consumed out of the decoders. The inputs
// are every varint length, histograms spanning the whole int64 range with
// counts up to UINT64_MAX, and every truncation and single-byte mutation
// of their encodings.

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/compact_histogram.h"
#include "src/util/random.h"
#include "src/util/serialization.h"

namespace sampwh {
namespace {

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();
constexpr uint64_t kMaxCount = std::numeric_limits<uint64_t>::max();

// --- The reference: one push_back per byte, one Status per varint ----------

void RefPutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

class RefReader {
 public:
  explicit RefReader(std::string_view data) : data_(data) {}

  Status GetVarint64(uint64_t* v) {
    uint64_t out = 0;
    int shift = 0;
    while (pos_ < data_.size()) {
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      if (shift == 63 && byte > 1) {
        return Status::Corruption("varint64 overflow");
      }
      out |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = out;
        return Status::OK();
      }
      shift += 7;
      if (shift > 63) return Status::Corruption("varint64 too long");
    }
    return Status::OutOfRange("truncated varint64");
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

std::string RefSerialize(const std::vector<CompactHistogram::Entry>& entries) {
  std::string out;
  RefPutVarint64(&out, entries.size());
  uint64_t previous = 0;
  for (const auto& [v, n] : entries) {
    const uint64_t bits = static_cast<uint64_t>(v);
    const uint64_t delta = bits - previous;
    // Zig-zag of the delta read as a signed integer.
    RefPutVarint64(&out, (delta << 1) ^ (0 - (delta >> 63)));
    RefPutVarint64(&out, n);
    previous = bits;
  }
  return out;
}

struct RefDecoded {
  Status status;
  std::vector<CompactHistogram::Entry> entries;
  size_t consumed = 0;
};

RefDecoded RefDeserialize(std::string_view bytes) {
  RefDecoded out;
  RefReader reader(bytes);
  const auto fail = [&out](Status st) {
    out.status = std::move(st);
    out.entries.clear();
    return out;
  };
  uint64_t num_entries;
  Status st = reader.GetVarint64(&num_entries);
  if (!st.ok()) return fail(st);
  if (num_entries > reader.remaining() / 2) {
    return fail(Status::Corruption("histogram entry count exceeds input"));
  }
  uint64_t previous = 0;
  uint64_t total = 0;
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint64_t zigzag;
    uint64_t count;
    st = reader.GetVarint64(&zigzag);
    if (st.ok()) st = reader.GetVarint64(&count);
    if (!st.ok()) return fail(st);
    if (count == 0) return fail(Status::Corruption("zero count"));
    if (count > kMaxCount - total) return fail(Status::Corruption("overflow"));
    const uint64_t delta = (zigzag >> 1) ^ (0 - (zigzag & 1));
    const uint64_t bits = previous + delta;
    if (i > 0 &&
        static_cast<Value>(bits) <= static_cast<Value>(previous)) {
      return fail(Status::Corruption("not strictly ascending"));
    }
    out.entries.emplace_back(static_cast<Value>(bits), count);
    total += count;
    previous = bits;
  }
  out.consumed = bytes.size() - reader.remaining();
  return out;
}

// --- Helpers ----------------------------------------------------------------

/// A heap copy of `bytes` with nothing after it, so a decoder that reads
/// one byte too far trips AddressSanitizer instead of reading slack.
std::unique_ptr<char[]> FlushCopy(std::string_view bytes) {
  auto copy = std::make_unique<char[]>(bytes.size());
  if (!bytes.empty()) std::memcpy(copy.get(), bytes.data(), bytes.size());
  return copy;
}

/// Decodes `bytes` with both codecs and checks that they agree.
::testing::AssertionResult DecodersAgree(std::string_view bytes) {
  const auto flush = FlushCopy(bytes);
  const std::string_view input(flush.get(), bytes.size());
  const RefDecoded ref = RefDeserialize(input);
  BinaryReader reader(input);
  const Result<CompactHistogram> got =
      CompactHistogram::DeserializeFrom(&reader);
  if (got.ok() != ref.status.ok() ||
      (!got.ok() && got.status().code() != ref.status.code())) {
    return ::testing::AssertionFailure()
           << got.status().ToString() << " vs " << ref.status.ToString();
  }
  if (got.ok() && got.value().entries() != ref.entries) {
    return ::testing::AssertionFailure() << "entries differ";
  }
  if (got.ok() && bytes.size() - reader.remaining() != ref.consumed) {
    return ::testing::AssertionFailure() << "bytes consumed differ";
  }
  return ::testing::AssertionSuccess();
}

CompactHistogram FromEntries(
    const std::vector<CompactHistogram::Entry>& entries) {
  CompactHistogram h;
  for (const auto& [v, n] : entries) h.Insert(v, n);
  return h;
}

/// The histograms the codec is compared on: the int64 extremes, counts up
/// to UINT64_MAX, deltas of every varint length, and a seeded spread.
std::vector<CompactHistogram> Corpus() {
  std::vector<CompactHistogram> corpus;
  corpus.push_back(CompactHistogram());
  corpus.push_back(FromEntries({{kMin, kMaxCount}}));
  corpus.push_back(FromEntries({{kMax, kMaxCount}}));
  corpus.push_back(
      FromEntries({{kMin, 1}, {-1, 2}, {0, kMaxCount - 5}, {kMax, 2}}));
  corpus.push_back(FromEntries({{kMin, 1}, {kMax, 1}}));
  corpus.push_back(FromEntries({{kMin + 1, 3}, {0, 1}, {kMax - 1, 1}}));
  // Deltas and counts of every varint length 1..10.
  std::vector<CompactHistogram::Entry> lengths;
  Value v = kMin;
  for (int bits = 0; bits < 63; bits += 7) {
    lengths.emplace_back(v, (uint64_t{1} << bits) | 1);
    v += Value{1} << bits;
  }
  corpus.push_back(FromEntries(lengths));
  // A seeded spread over the whole range: values from uniform bits, mixed
  // small and large counts whose sum stays below UINT64_MAX.
  Pcg64 rng(0xC0DEC0DEULL, 19);
  for (int round = 0; round < 4; ++round) {
    CompactHistogram h;
    for (int i = 0; i < 24; ++i) {
      const uint64_t raw = rng.NextUint64();
      const uint64_t count =
          i % 5 == 0 ? (rng.NextUint64() >> 8) : 1 + rng.NextUint64() % 300;
      h.Insert(static_cast<Value>(round == 0 ? raw : raw >> (16 * round)),
               count);
    }
    corpus.push_back(h);
  }
  return corpus;
}

// --- The varint kernel ------------------------------------------------------

TEST(HistogramCodecDiffTest, VarintOfEveryLengthFlushAgainstTheEnd) {
  std::vector<uint64_t> values = {0, kMaxCount};
  for (int len = 1; len <= 10; ++len) {
    const int bits = 7 * len;
    values.push_back(uint64_t{1} << (bits - 7));  // shortest of this length
    if (bits < 64) values.push_back((uint64_t{1} << bits) - 1);  // longest
  }
  for (const uint64_t v : values) {
    std::string ref;
    RefPutVarint64(&ref, v);
    // Encode: the kernel, and the writer that calls it.
    char buf[kMaxVarint64Bytes];
    const size_t len = EncodeVarint64(buf, v) - buf;
    ASSERT_EQ(std::string_view(buf, len), ref) << v;
    BinaryWriter writer;
    writer.PutVarint64(v);
    ASSERT_EQ(writer.buffer(), ref) << v;
    // Decode the varint flush against the end, and every prefix of it.
    for (size_t cut = 0; cut <= ref.size(); ++cut) {
      const auto flush = FlushCopy(std::string_view(ref).substr(0, cut));
      RefReader ref_reader(std::string_view(flush.get(), cut));
      uint64_t ref_value = 0;
      const Status ref_st = ref_reader.GetVarint64(&ref_value);
      const char* p = flush.get();
      uint64_t got = 0;
      const VarintDecode result = DecodeVarint64(&p, flush.get() + cut, &got);
      ASSERT_EQ(result == VarintDecode::kOk, ref_st.ok()) << v << " " << cut;
      BinaryReader reader(std::string_view(flush.get(), cut));
      uint64_t via_reader = 0;
      const Status reader_st = reader.GetVarint64(&via_reader);
      ASSERT_EQ(reader_st.code(), ref_st.code()) << v << " " << cut;
      if (ref_st.ok()) {
        ASSERT_EQ(got, v);
        ASSERT_EQ(via_reader, v);
        ASSERT_EQ(static_cast<size_t>(p - flush.get()), cut);
        ASSERT_TRUE(reader.AtEnd());
      } else {
        ASSERT_EQ(VarintDecodeStatus(result).code(), ref_st.code());
        ASSERT_EQ(p, flush.get()) << "a failed decode must not advance";
      }
    }
  }
}

TEST(HistogramCodecDiffTest, MalformedTenthBytesAreCorruption) {
  // Nine continuation bytes, then every possible tenth byte: 0 and 1 end
  // the varint, anything above 1 overflows 64 bits.
  for (int tenth = 0; tenth < 256; ++tenth) {
    std::string bytes(9, '\xff');
    bytes.push_back(static_cast<char>(tenth));
    const auto flush = FlushCopy(bytes);
    RefReader ref(std::string_view(flush.get(), bytes.size()));
    uint64_t ref_value = 0;
    const Status ref_st = ref.GetVarint64(&ref_value);
    BinaryReader reader(std::string_view(flush.get(), bytes.size()));
    uint64_t got = 0;
    const Status st = reader.GetVarint64(&got);
    ASSERT_EQ(st.code(), ref_st.code()) << tenth;
    if (st.ok()) {
      ASSERT_EQ(got, ref_value);
    }
  }
}

// --- The histogram codec ----------------------------------------------------

TEST(HistogramCodecDiffTest, EncoderWritesTheReferenceBytes) {
  for (const CompactHistogram& h : Corpus()) {
    BinaryWriter writer;
    writer.PutFixed32(0xABCD1234);  // the codec appends after earlier fields
    h.SerializeTo(&writer);
    const std::string ref = RefSerialize(h.entries());
    ASSERT_EQ(writer.buffer().substr(4), ref);
    ASSERT_TRUE(DecodersAgree(ref));
    BinaryReader reader(ref);
    const auto back = CompactHistogram::DeserializeFrom(&reader);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(back.value() == h);
    EXPECT_EQ(back.value().total_count(), h.total_count());
    EXPECT_EQ(back.value().footprint_bytes(), h.footprint_bytes());
  }
}

TEST(HistogramCodecDiffTest, EveryTruncationDecodesAlike) {
  for (const CompactHistogram& h : Corpus()) {
    const std::string bytes = RefSerialize(h.entries());
    for (size_t cut = 0; cut <= bytes.size(); ++cut) {
      ASSERT_TRUE(DecodersAgree(std::string_view(bytes).substr(0, cut)))
          << "cut " << cut;
    }
  }
}

TEST(HistogramCodecDiffTest, EverySingleByteMutationDecodesAlike) {
  for (const CompactHistogram& h : Corpus()) {
    const std::string bytes = RefSerialize(h.entries());
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int b = 0; b < 256; ++b) {
        if (b == static_cast<uint8_t>(bytes[pos])) continue;
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(b);
        ASSERT_TRUE(DecodersAgree(mutated)) << "pos " << pos << " byte " << b;
      }
    }
  }
}

TEST(HistogramCodecDiffTest, TrailingInputIsLeftForTheCaller) {
  // The codec consumes exactly its own bytes; whatever follows is the
  // caller's next field.
  const CompactHistogram h = Corpus()[3];
  const std::string bytes = RefSerialize(h.entries()) + "tail";
  ASSERT_TRUE(DecodersAgree(bytes));
  BinaryReader reader(bytes);
  ASSERT_TRUE(CompactHistogram::DeserializeFrom(&reader).ok());
  EXPECT_EQ(reader.rest(), "tail");
}

}  // namespace
}  // namespace sampwh
