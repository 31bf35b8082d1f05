// Differential test of the varint kernel and the packed histogram layout
// against references kept here and nowhere else: a byte-at-a-time LEB128
// reader, and a bit-at-a-time packer and unpacker. Production and
// reference must agree on every input: identical bytes out of the
// encoders; identical accept or reject, StatusCode, entries and bytes
// consumed out of the decoders. The inputs are every varint length, every
// gap width 0..64, entry counts on both sides of the 128-gap block edges,
// histograms spanning the whole int64 range with counts up to UINT64_MAX,
// and every truncation and single-byte mutation of their encodings.

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

  /// GetVarint64, then Corruption unless no shorter varint encodes *v.
  Status GetMinimalVarint64(uint64_t* v) {
    const size_t start = pos_;
    Status st = GetVarint64(v);
    if (!st.ok()) return st;
    size_t shortest = 1;
    for (uint64_t rest = *v >> 7; rest != 0; rest >>= 7) ++shortest;
    if (pos_ - start != shortest) {
      return Status::Corruption("overlong varint");
    }
    return Status::OK();
  }

  /// The input from the cursor on, as bytes for bit-at-a-time reads.
  const uint8_t* Here() const {
    return reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
  }

  bool GetByte(uint8_t* byte) {
    if (pos_ == data_.size()) return false;
    *byte = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  void Skip(size_t n) { pos_ += n; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

struct RefDecoded {
  Status status;
  std::vector<CompactHistogram::Entry> entries;
  size_t consumed = 0;
};

// --- The packed reference: one bit at a time -------------------------------

// Bit `bit` (LSB-first) of `bytes`.
bool RefBit(const uint8_t* bytes, uint64_t bit) {
  return (bytes[bit / 8] >> (bit % 8)) & 1;
}

uint64_t RefZigZag(Value v) {
  return v < 0 ? 2 * (~static_cast<uint64_t>(v)) + 1
               : 2 * static_cast<uint64_t>(v);
}

Value RefUnZigZag(uint64_t z) {
  return z % 2 == 1 ? static_cast<Value>(~(z / 2)) : static_cast<Value>(z / 2);
}

// The width of `v`: the position of its highest set bit, plus one.
unsigned RefWidth(uint64_t v) {
  unsigned width = 0;
  while (width < 64 && (v >> width) != 0) ++width;
  return width;
}

class RefBitWriter {
 public:
  explicit RefBitWriter(std::string* out) : out_(out) {}
  void Put(bool bit) {
    if (used_ == 0) out_->push_back('\0');
    if (bit) out_->back() = static_cast<char>(out_->back() | (1 << used_));
    used_ = (used_ + 1) % 8;
  }
  // Ends the byte in progress: its remaining bits stay zero.
  void Flush() { used_ = 0; }

 private:
  std::string* out_;
  int used_ = 0;
};

std::string RefPack(const std::vector<CompactHistogram::Entry>& entries) {
  std::string out;
  RefPutVarint64(&out, entries.size());
  if (entries.empty()) return out;
  RefPutVarint64(&out, RefZigZag(entries[0].first));
  for (size_t begin = 1; begin < entries.size(); begin += 128) {
    const size_t end = std::min(entries.size(), begin + 128);
    std::vector<uint64_t> gaps;
    uint64_t widest = 0;
    for (size_t i = begin; i < end; ++i) {
      // The distance between neighbours, less one, in 128-bit arithmetic.
      const __int128 gap = static_cast<__int128>(entries[i].first) -
                           static_cast<__int128>(entries[i - 1].first) - 1;
      gaps.push_back(static_cast<uint64_t>(gap));
      widest = std::max(widest, gaps.back());
    }
    const unsigned width = RefWidth(widest);
    out.push_back(static_cast<char>(width));
    RefBitWriter bits(&out);
    for (const uint64_t gap : gaps) {
      for (unsigned b = 0; b < width; ++b) bits.Put((gap >> b) & 1);
    }
    bits.Flush();
  }
  RefBitWriter bitmap(&out);
  for (const auto& [v, n] : entries) bitmap.Put(n > 1);
  bitmap.Flush();
  for (const auto& [v, n] : entries) {
    if (n > 1) RefPutVarint64(&out, n - 2);
  }
  return out;
}

RefDecoded RefUnpack(std::string_view bytes,
                     uint64_t max_entries = kMaxCount) {
  RefDecoded out;
  RefReader reader(bytes);
  const auto fail = [&out](Status st) {
    out.status = std::move(st);
    out.entries.clear();
    return out;
  };
  uint64_t n;
  Status st = reader.GetMinimalVarint64(&n);
  if (!st.ok()) return fail(st);
  if (n > 0) {
    if (n > max_entries) return fail(Status::Corruption("over the bound"));
    // A one-byte first value, one width byte per block, the bitmap.
    const unsigned __int128 least = 1 + (static_cast<__int128>(n) + 126) / 128 +
                                    (static_cast<__int128>(n) + 7) / 8;
    if (least > reader.remaining()) {
      return fail(Status::Corruption("entry count exceeds input"));
    }
    uint64_t zigzag;
    st = reader.GetMinimalVarint64(&zigzag);
    if (!st.ok()) return fail(st);
    __int128 value = RefUnZigZag(zigzag);
    out.entries.reserve(n);
    out.entries.emplace_back(static_cast<Value>(value), 1);
    for (uint64_t begin = 1; begin < n; begin += 128) {
      const uint64_t count = std::min<uint64_t>(128, n - begin);
      uint8_t width;
      if (!reader.GetByte(&width)) {
        return fail(Status::OutOfRange("no width byte"));
      }
      if (width > 64) return fail(Status::Corruption("width over 64"));
      const uint64_t block_bytes = (width * count + 7) / 8;
      if (block_bytes > reader.remaining()) {
        return fail(Status::OutOfRange("truncated block"));
      }
      const uint8_t* const block = reader.Here();
      uint64_t widest = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t gap = 0;
        for (unsigned b = 0; b < width; ++b) {
          gap |= static_cast<uint64_t>(RefBit(block, i * width + b)) << b;
        }
        widest = std::max(widest, gap);
        value += static_cast<__int128>(gap) + 1;
        if (value > kMax) return fail(Status::Corruption("past INT64_MAX"));
        out.entries.emplace_back(static_cast<Value>(value), 1);
      }
      if (RefWidth(widest) != width) {
        return fail(Status::Corruption("width not the tightest"));
      }
      for (uint64_t bit = width * count; bit < 8 * block_bytes; ++bit) {
        if (RefBit(block, bit)) return fail(Status::Corruption("block padding"));
      }
      reader.Skip(block_bytes);
    }
    const uint64_t bitmap_bytes = (n + 7) / 8;
    if (bitmap_bytes > reader.remaining()) {
      return fail(Status::OutOfRange("truncated bitmap"));
    }
    for (uint64_t bit = n; bit < 8 * bitmap_bytes; ++bit) {
      if (RefBit(reader.Here(), bit)) {
        return fail(Status::Corruption("bitmap padding"));
      }
    }
    std::vector<bool> paired;
    for (uint64_t i = 0; i < n; ++i) paired.push_back(RefBit(reader.Here(), i));
    reader.Skip(bitmap_bytes);
    unsigned __int128 total = n;
    for (uint64_t i = 0; i < n; ++i) {
      if (!paired[i]) continue;
      uint64_t extra;
      st = reader.GetMinimalVarint64(&extra);
      if (!st.ok()) return fail(st);
      const unsigned __int128 count = static_cast<unsigned __int128>(extra) + 2;
      if (count > kMaxCount) return fail(Status::Corruption("count overflow"));
      total += count - 1;
      if (total > kMaxCount) return fail(Status::Corruption("total overflow"));
      out.entries[i].second = static_cast<uint64_t>(count);
    }
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

/// Decodes `bytes` with the library and with the reference, and checks
/// that they agree; a decoded histogram must also carry the totals of its
/// entries.
::testing::AssertionResult DecodersAgree(std::string_view bytes,
                                         uint64_t max_entries = kMaxCount) {
  const auto flush = FlushCopy(bytes);
  const std::string_view input(flush.get(), bytes.size());
  const RefDecoded ref = RefUnpack(input, max_entries);
  BinaryReader reader(input);
  const Result<CompactHistogram> got =
      CompactHistogram::DeserializeFrom(&reader, max_entries);
  if (got.ok() != ref.status.ok() ||
      (!got.ok() && got.status().code() != ref.status.code())) {
    return ::testing::AssertionFailure()
           << got.status().ToString() << " vs " << ref.status.ToString();
  }
  if (!got.ok()) return ::testing::AssertionSuccess();
  if (got.value().entries() != ref.entries) {
    return ::testing::AssertionFailure() << "entries differ";
  }
  if (bytes.size() - reader.remaining() != ref.consumed) {
    return ::testing::AssertionFailure() << "bytes consumed differ";
  }
  const CompactHistogram recounted =
      CompactHistogram::FromSortedEntries(ref.entries);
  if (got.value().total_count() != recounted.total_count() ||
      got.value().footprint_bytes() != recounted.footprint_bytes()) {
    return ::testing::AssertionFailure() << "totals differ";
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

/// Histograms whose first block has a largest gap of exactly `width`
/// bits, for every width 0..64: a short one (two gaps, so the last gap
/// sits in the input's final bytes) and a long one (two blocks) as far as
/// the int64 range allows. Values start at INT64_MIN.
std::vector<CompactHistogram> WidthCorpus(bool long_ones) {
  std::vector<CompactHistogram> corpus;
  for (unsigned width = 0; width <= 64; ++width) {
    Pcg64 rng(0x9A95 + width, 3);
    const uint64_t mask =
        width == 64 ? kMaxCount : (uint64_t{1} << width) - 1;
    // What the values may still climb: from INT64_MIN to INT64_MAX.
    uint64_t room = kMaxCount;
    std::vector<CompactHistogram::Entry> entries = {{kMin, 1}};
    const size_t wanted = long_ones ? 140 : 3;
    for (size_t i = 1; i < wanted; ++i) {
      uint64_t gap = rng.NextUint64() & mask;
      if (i == 1 && width > 0) gap |= uint64_t{1} << (width - 1);
      if (gap >= room) gap = 0;  // the range is spent: step by one
      if (gap >= room) break;
      room -= gap + 1;
      const uint64_t count = i % 7 == 0 ? 2 + rng.UniformInt(1000) : 1;
      entries.emplace_back(
          static_cast<Value>(static_cast<uint64_t>(entries.back().first) +
                             gap + 1),
          count);
    }
    corpus.push_back(CompactHistogram::FromSortedEntries(entries));
  }
  return corpus;
}

/// Entry counts on both sides of the 128-gap block edges, with narrow
/// gaps, paired counts up to UINT64_MAX, and values ending at INT64_MAX.
std::vector<CompactHistogram> BlockEdgeCorpus() {
  std::vector<CompactHistogram> corpus;
  for (const size_t n : {0, 1, 2, 127, 128, 129, 255, 256, 257}) {
    Pcg64 rng(0xED6E + n, 5);
    std::vector<CompactHistogram::Entry> entries(n);
    Value v = kMax;
    uint64_t budget = kMaxCount;  // what the counts may still sum to
    for (size_t i = n; i-- > 0;) {
      uint64_t count = 1;
      if (i % 16 == 0) count = 2 + rng.UniformInt(300);
      if (i == n / 2) count = budget / 2;
      count = std::min(count, budget - i);  // leave 1 for every other
      budget -= count;
      entries[i] = {v, count};
      v -= static_cast<Value>(1 + rng.UniformInt(4));
    }
    corpus.push_back(CompactHistogram::FromSortedEntries(entries));
  }
  return corpus;
}

std::string Packed(const CompactHistogram& h) {
  BinaryWriter writer;
  h.SerializeTo(&writer);
  return writer.Release();
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
  std::vector<CompactHistogram> all = Corpus();
  for (const bool long_ones : {false, true}) {
    for (CompactHistogram& h : WidthCorpus(long_ones)) all.push_back(h);
  }
  for (CompactHistogram& h : BlockEdgeCorpus()) all.push_back(h);
  for (const CompactHistogram& h : all) {
    BinaryWriter writer;
    writer.PutFixed32(0xABCD1234);  // the codec appends after earlier fields
    h.SerializeTo(&writer);
    const std::string ref = RefPack(h.entries());
    ASSERT_EQ(writer.buffer().substr(4), ref);
    ASSERT_TRUE(DecodersAgree(ref));
    // The bytes decode to the histogram that was encoded.
    BinaryReader reader(ref);
    const auto back = CompactHistogram::DeserializeFrom(&reader);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_TRUE(back.value() == h);
    EXPECT_EQ(back.value().total_count(), h.total_count());
    EXPECT_EQ(back.value().footprint_bytes(), h.footprint_bytes());
  }
}

TEST(HistogramCodecDiffTest, EveryWidthIsCovered) {
  // The width corpus puts every width 0..64 in a first block, and the
  // first block's width byte follows the entry count and first value.
  for (const bool long_ones : {false, true}) {
    const std::vector<CompactHistogram> corpus = WidthCorpus(long_ones);
    ASSERT_EQ(corpus.size(), 65u);
    for (unsigned width = 0; width <= 64; ++width) {
      const CompactHistogram& h = corpus[width];
      ASSERT_GE(h.distinct_count(), 2u) << width;
      const std::string bytes = Packed(h);
      const size_t at = VarintLength(h.distinct_count()) +
                        VarintLength(ZigZagEncode64(h.entries()[0].first));
      EXPECT_EQ(static_cast<uint8_t>(bytes[at]), width);
    }
  }
}

TEST(HistogramCodecDiffTest, EveryTruncationDecodesAlike) {
  std::vector<CompactHistogram> all = Corpus();
  for (const bool long_ones : {false, true}) {
    for (CompactHistogram& h : WidthCorpus(long_ones)) all.push_back(h);
  }
  for (CompactHistogram& h : BlockEdgeCorpus()) all.push_back(h);
  for (const CompactHistogram& h : all) {
    const std::string bytes = Packed(h);
    for (size_t cut = 0; cut <= bytes.size(); ++cut) {
      ASSERT_TRUE(DecodersAgree(std::string_view(bytes).substr(0, cut)))
          << "cut " << cut;
    }
  }
}

// Every byte of `bytes` replaced by every other value decodes alike.
void ExpectEveryMutationDecodesAlike(const std::string& bytes) {
  std::string mutated = bytes;
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int b = 0; b < 256; ++b) {
      if (b == static_cast<uint8_t>(bytes[pos])) continue;
      mutated[pos] = static_cast<char>(b);
      ASSERT_TRUE(DecodersAgree(mutated))
          << "pos " << pos << " byte " << b;
    }
    mutated[pos] = bytes[pos];
  }
}

TEST(HistogramCodecDiffTest, EverySingleByteMutationDecodesAlike) {
  // The long width corpus and the second block edge (255..257 entries)
  // are left to the truncation test: their mutations would multiply the
  // run time without reaching a new decoder branch.
  std::vector<CompactHistogram> all = Corpus();
  for (CompactHistogram& h : WidthCorpus(false)) all.push_back(h);
  for (const CompactHistogram& h : BlockEdgeCorpus()) {
    if (h.distinct_count() <= 129) all.push_back(h);
  }
  for (const CompactHistogram& h : all) {
    ExpectEveryMutationDecodesAlike(Packed(h));
  }
}

TEST(HistogramCodecDiffTest, TrailingInputIsLeftForTheCaller) {
  // The codec consumes exactly its own bytes; whatever follows is the
  // caller's next field.
  const std::string bytes = Packed(Corpus()[3]) + "tail";
  ASSERT_TRUE(DecodersAgree(bytes));
  BinaryReader reader(bytes);
  ASSERT_TRUE(CompactHistogram::DeserializeFrom(&reader).ok());
  EXPECT_EQ(reader.rest(), "tail");
}

// --- Packed inputs that are not the canonical encoding ----------------------

// Hand-built packed bytes: varint n, the first value's zig-zag varint, then
// `rest` verbatim.
std::string PackedBytes(uint64_t n, uint64_t first_zigzag,
                        std::string_view rest) {
  std::string out;
  RefPutVarint64(&out, n);
  RefPutVarint64(&out, first_zigzag);
  out.append(rest);
  return out;
}

Status DecodePacked(std::string_view bytes,
                    uint64_t max_entries = kMaxCount) {
  EXPECT_TRUE(DecodersAgree(bytes, max_entries));
  BinaryReader reader(bytes);
  return CompactHistogram::DeserializeFrom(&reader, max_entries).status();
}

TEST(HistogramCodecDiffTest, PackedDecodeAcceptsOnlyTheCanonicalForm) {
  // Values 0 and 5 (gap 4, width 3), counts 1 and 7: "\x03\x04", bitmap
  // 0b10, varint 5.
  const std::string canonical = PackedBytes(2, 0, std::string("\x03\x04\x02\x05", 4));
  ASSERT_EQ(canonical, Packed(FromEntries({{0, 1}, {5, 7}})));
  EXPECT_TRUE(DecodePacked(canonical).ok());
  // A width wider than the gaps need, or beyond 64 bits.
  EXPECT_TRUE(DecodePacked(PackedBytes(2, 0, std::string("\x04\x04\x02\x05", 4)))
                  .IsCorruption());
  EXPECT_TRUE(DecodePacked(PackedBytes(2, 0, std::string("\x41\x04\x00\x00\x00\x00\x00\x00\x00\x00\x02\x05", 12)))
                  .IsCorruption());
  // Nonzero padding after the gap bits, or after the bitmap bits.
  EXPECT_TRUE(DecodePacked(PackedBytes(2, 0, std::string("\x03\x0C\x02\x05", 4)))
                  .IsCorruption());
  EXPECT_TRUE(DecodePacked(PackedBytes(2, 0, std::string("\x03\x04\x06\x05", 4)))
                  .IsCorruption());
  // Overlong varints: the count, the entry count, the first value.
  EXPECT_TRUE(DecodePacked(PackedBytes(2, 0, std::string("\x03\x04\x02\x85\x00", 5)))
                  .IsCorruption());
  EXPECT_TRUE(DecodePacked(std::string("\x82\x00\x00\x03\x04\x02\x05", 7))
                  .IsCorruption());
  EXPECT_TRUE(DecodePacked(std::string("\x02\x80\x00\x03\x04\x02\x05", 7))
                  .IsCorruption());
  // A count of UINT64_MAX is varint(UINT64_MAX - 2); anything above
  // overflows the count.
  std::string max_count = PackedBytes(1, 0, "\x01");
  RefPutVarint64(&max_count, kMaxCount - 2);
  EXPECT_TRUE(DecodePacked(max_count).ok());
  std::string over = PackedBytes(1, 0, "\x01");
  RefPutVarint64(&over, kMaxCount - 1);
  EXPECT_TRUE(DecodePacked(over).IsCorruption());
}

TEST(HistogramCodecDiffTest, PackedDecodeHasNoDuplicateOrDescent) {
  // Gap - 1 makes a zero gap a step of one; only a carry past INT64_MAX
  // can return to or below a value, and that is Corruption.
  EXPECT_TRUE(DecodePacked(Packed(FromEntries({{kMax - 1, 1}, {kMax, 1}})))
                  .ok());
  // From INT64_MAX, the smallest step (gap 0) leaves the range.
  EXPECT_TRUE(DecodePacked(PackedBytes(2, RefZigZag(kMax),
                                       std::string("\x00\x00", 2)))
                  .IsCorruption());
  // From 0, a gap of UINT64_MAX lands back on 0: a duplicate.
  std::string wrap = PackedBytes(2, 0, "\x40");
  wrap.append(8, '\xff');
  wrap.push_back('\0');
  EXPECT_TRUE(DecodePacked(wrap).IsCorruption());
}

TEST(HistogramCodecDiffTest, PackedEntryCountIsBoundedBeforeAllocating) {
  // A 20-byte input claiming 2^40 entries: the count bitmap alone would
  // need 2^37 bytes, so it is rejected before 16 TiB of entries are
  // reserved (which would abort under a sanitizer and throw elsewhere).
  std::string huge;
  RefPutVarint64(&huge, uint64_t{1} << 40);
  huge.resize(20, '\0');
  EXPECT_TRUE(DecodePacked(huge).IsCorruption());
  // The fewest bytes n entries take: n consecutive singletons, every
  // block of width 0. Exactly that many are accepted; one byte fewer is
  // rejected by the count check.
  for (const uint64_t n : {1, 2, 129, 130, 1000}) {
    std::vector<CompactHistogram::Entry> run;
    for (uint64_t i = 0; i < n; ++i) run.emplace_back(static_cast<Value>(i), 1);
    const std::string tight = Packed(CompactHistogram::FromSortedEntries(run));
    const size_t least = VarintLength(n) + 1 + (n + 126) / 128 + (n + 7) / 8;
    ASSERT_EQ(tight.size(), least) << n;
    EXPECT_TRUE(DecodePacked(tight).ok()) << n;
    EXPECT_TRUE(DecodePacked(tight.substr(0, tight.size() - 1)).IsCorruption())
        << n;
    // A caller's bound on the entry count applies first.
    EXPECT_TRUE(DecodePacked(tight, n).ok()) << n;
    EXPECT_TRUE(DecodePacked(tight, n - 1).IsCorruption()) << n;
  }
}

}  // namespace
}  // namespace sampwh
