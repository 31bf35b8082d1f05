#include "src/util/serialization.h"

#include <climits>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace sampwh {
namespace {

TEST(SerializationTest, FixedIntsRoundTrip) {
  BinaryWriter w;
  w.PutFixed32(0xdeadbeef);
  w.PutFixed64(0x0123456789abcdefULL);
  BinaryReader r(w.buffer());
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(r.GetFixed32(&a).ok());
  ASSERT_TRUE(r.GetFixed64(&b).ok());
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializationTest, VarintRoundTripAcrossMagnitudes) {
  BinaryWriter w;
  const uint64_t values[] = {0,     1,        127,        128,
                             16383, 16384,    (1ULL << 32) - 1,
                             1ULL << 32,      UINT64_MAX};
  for (const uint64_t v : values) w.PutVarint64(v);
  BinaryReader r(w.buffer());
  for (const uint64_t v : values) {
    uint64_t decoded;
    ASSERT_TRUE(r.GetVarint64(&decoded).ok());
    EXPECT_EQ(decoded, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializationTest, VarintEncodingIsCompact) {
  BinaryWriter w;
  w.PutVarint64(5);
  EXPECT_EQ(w.size(), 1u);
  w.PutVarint64(300);
  EXPECT_EQ(w.size(), 3u);  // 1 + 2
}

TEST(SerializationTest, SignedVarintRoundTrip) {
  BinaryWriter w;
  const int64_t values[] = {0,  -1, 1, -64, 64, -1000000, 1000000,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (const int64_t v : values) w.PutVarintSigned64(v);
  BinaryReader r(w.buffer());
  for (const int64_t v : values) {
    int64_t decoded;
    ASSERT_TRUE(r.GetVarintSigned64(&decoded).ok());
    EXPECT_EQ(decoded, v) << v;
  }
}

TEST(SerializationTest, ZigZagKeepsSmallMagnitudesShort) {
  BinaryWriter w;
  w.PutVarintSigned64(-3);
  EXPECT_EQ(w.size(), 1u);
}

TEST(SerializationTest, DoubleRoundTrip) {
  BinaryWriter w;
  const double values[] = {0.0, -0.0, 1.5, -3.25e300, 1e-300,
                           std::numeric_limits<double>::infinity()};
  for (const double v : values) w.PutDouble(v);
  BinaryReader r(w.buffer());
  for (const double v : values) {
    double decoded;
    ASSERT_TRUE(r.GetDouble(&decoded).ok());
    EXPECT_EQ(decoded, v);
  }
}

TEST(SerializationTest, StringRoundTrip) {
  BinaryWriter w;
  w.PutString("");
  w.PutString("hello");
  w.PutString(std::string(1000, 'x'));
  std::string with_nul("a\0b", 3);
  w.PutString(with_nul);
  BinaryReader r(w.buffer());
  std::string s;
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, std::string(1000, 'x'));
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, with_nul);
}

TEST(SerializationTest, TruncatedReadsFailCleanly) {
  BinaryWriter w;
  w.PutFixed64(12345);
  const std::string truncated = w.buffer().substr(0, 3);
  BinaryReader r(truncated);
  uint64_t v;
  EXPECT_TRUE(r.GetFixed64(&v).IsOutOfRange());
}

TEST(SerializationTest, TruncatedVarintFails) {
  BinaryWriter w;
  w.PutVarint64(UINT64_MAX);
  const std::string truncated = w.buffer().substr(0, 4);
  BinaryReader r(truncated);
  uint64_t v;
  EXPECT_TRUE(r.GetVarint64(&v).IsOutOfRange());
}

TEST(SerializationTest, MalformedVarintIsCorruption) {
  // 11 continuation bytes: longer than any valid varint64.
  const std::string bad(11, '\x80');
  BinaryReader r(bad);
  uint64_t v;
  const Status s = r.GetVarint64(&v);
  EXPECT_TRUE(s.IsCorruption() || s.IsOutOfRange());
}

TEST(SerializationTest, StringWithOversizedLengthFails) {
  BinaryWriter w;
  w.PutVarint64(1000);  // claims 1000 bytes
  w.PutRaw("abc", 3);   // provides 3
  BinaryReader r(w.buffer());
  std::string s;
  EXPECT_TRUE(r.GetString(&s).IsOutOfRange());
}

TEST(FileIoTest, WriteAndReadBack) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sampwh_serial_test.bin")
          .string();
  const std::string payload("some\0binary\xff payload", 20);
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  std::string contents;
  ASSERT_TRUE(ReadFile(path, &contents).ok());
  EXPECT_EQ(contents, payload);
  std::filesystem::remove(path);
}

TEST(FileIoTest, ReadMissingFileIsNotFound) {
  std::string contents;
  EXPECT_TRUE(ReadFile("/nonexistent/dir/file.bin", &contents).IsNotFound());
}

// Only a missing file reads as absent. A path the kernel refuses for any
// other reason (here ENAMETOOLONG) is an IO fault: callers retry IOError
// and would otherwise report a transient fault as a missing partition.
TEST(FileIoTest, ReadOfUnopenablePathIsIOErrorNotNotFound) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            std::string(NAME_MAX + 1, 'x'))
                               .string();
  std::string contents;
  const Status status = ReadFile(path, &contents);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(FileIoTest, AtomicWriteReplacesExisting) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sampwh_replace_test.bin")
          .string();
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "new contents").ok());
  std::string contents;
  ASSERT_TRUE(ReadFile(path, &contents).ok());
  EXPECT_EQ(contents, "new contents");
  std::filesystem::remove(path);
}

TEST(Crc32Test, MatchesKnownAnswers) {
  // Reference values of the standard reflected CRC-32 (the zlib/IEEE
  // polynomial), so the checksum stays interoperable across releases.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, DetectsAnyChange) {
  const uint32_t base = Crc32("warehouse sample payload");
  EXPECT_NE(base, Crc32("warehouse sample payloae"));
  EXPECT_NE(base, Crc32("warehouse sample payloa"));
  EXPECT_NE(base, Crc32("Warehouse sample payload"));
}

// The classic one-table CRC-32, one byte per step: the reference both the
// slice-by-8 loop and the carry-less-multiply fold must agree with.
uint32_t BytewiseCrc32(std::string_view data) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string XorShiftBytes(size_t n) {
  std::string buffer(n, '\0');
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (char& c : buffer) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  return buffer;
}

TEST(Crc32Test, SliceBy8MatchesBytewiseAtEveryLengthAndAlignment) {
  // Lengths 0..2048 at every offset within a 16-byte lane: below 64 bytes
  // only slice-by-8 runs; from 64 on the fold takes the largest multiple of
  // 16 and slice-by-8 the tail, so every fold/tail split is covered.
  const std::string buffer = XorShiftBytes(2048 + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 2048; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      const uint32_t expected = BytewiseCrc32(data);
      ASSERT_EQ(Crc32(data), expected)
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32SliceBy8(data), expected)
          << "offset " << offset << " length " << length;
    }
  }
  // Frame- and file-sized inputs: many 64-byte fold rounds in a row.
  const std::string big = XorShiftBytes((1u << 20) + 3);
  for (const size_t length : {size_t{64} << 10, size_t{1} << 20}) {
    for (const size_t offset : {size_t{0}, size_t{3}}) {
      const std::string_view data(big.data() + offset, length);
      const uint32_t expected = BytewiseCrc32(data);
      EXPECT_EQ(Crc32(data), expected) << "length " << length;
      EXPECT_EQ(Crc32SliceBy8(data), expected) << "length " << length;
    }
  }
  EXPECT_EQ(BytewiseCrc32("123456789"), 0xCBF43926u);
}

TEST(FrameTest, WalRecordIsAWireFrame) {
  // The checkpoint WAL and the wire share one frame format: a record
  // appended to a WAL is byte for byte the frame the wire sends. 64 bytes
  // is where Crc32 switches from slice-by-8 to the carry-less fold.
  for (const size_t length : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                              size_t{65}, size_t{4096}}) {
    const std::string payload = XorShiftBytes(length);
    std::string wal = "earlier records";
    const size_t before = wal.size();
    AppendFrame(&wal, payload);
    EXPECT_EQ(wal.substr(before), EncodeFrame(payload)) << "length " << length;
    // Both are the one format: fixed32 length, fixed32 CRC-32, payload.
    BinaryWriter frame;
    frame.PutFixed32(static_cast<uint32_t>(payload.size()));
    frame.PutFixed32(Crc32(payload));
    frame.PutRaw(payload.data(), payload.size());
    EXPECT_EQ(EncodeFrame(payload), frame.buffer()) << "length " << length;
  }
}

// The stored file (util/serialization "Stored files") is what the sample
// envelope was: the one wrapper every stored sample, checkpoint snapshot
// and MANIFEST snapshot is written in. These cases keep the envelope's
// names and pin the frame in its place.

TEST(SampleEnvelopeTest, WrapUnwrapRoundTrips) {
  const std::string payload("arbitrary sample bytes \x00\x01\xff", 26);
  const std::string file = EncodeFrame(payload);
  EXPECT_EQ(file.size(), kFrameHeaderBytes + payload.size());
  std::string_view unwrapped;
  ASSERT_TRUE(DecodeStoredFile(file, "a.sample", &unwrapped).ok());
  EXPECT_EQ(unwrapped, payload);
}

TEST(SampleEnvelopeTest, EmptyPayloadRoundTrips) {
  const std::string file = EncodeFrame("");
  std::string_view unwrapped;
  ASSERT_TRUE(DecodeStoredFile(file, "a.sample", &unwrapped).ok());
  EXPECT_TRUE(unwrapped.empty());
}

TEST(SampleEnvelopeTest, HeaderLayoutIsStable) {
  // On-disk layout contract: fixed32 payload length | fixed32 payload CRC
  // | payload — the wire's and the WALs' frame. A change here changes
  // every stored file.
  const std::string file = EncodeFrame("xy");
  BinaryReader reader(file);
  uint32_t size = 0, crc = 0;
  ASSERT_TRUE(reader.GetFixed32(&size).ok());
  ASSERT_TRUE(reader.GetFixed32(&crc).ok());
  EXPECT_EQ(size, 2u);
  EXPECT_EQ(crc, Crc32("xy"));
  EXPECT_EQ(reader.rest(), "xy");
}

TEST(SampleEnvelopeTest, RejectsForeignAndDamagedInputs) {
  std::string_view payload;
  EXPECT_TRUE(DecodeStoredFile("", "f", &payload).IsCorruption());
  EXPECT_TRUE(
      DecodeStoredFile("not a stored frame", "f", &payload).IsCorruption());
  const std::string file = EncodeFrame("payload");
  // Truncated file (torn write), and a frame followed by more bytes.
  EXPECT_TRUE(DecodeStoredFile(file.substr(0, file.size() - 1), "f", &payload)
                  .IsCorruption());
  EXPECT_TRUE(DecodeStoredFile(file + file, "f", &payload).IsCorruption());
  // A length that no longer spans the file.
  std::string longer = file;
  longer[0] = static_cast<char>(longer[0] + 1);
  EXPECT_TRUE(DecodeStoredFile(longer, "f", &payload).IsCorruption());
  // Flipped payload bit.
  std::string flipped = file;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x10);
  EXPECT_TRUE(DecodeStoredFile(flipped, "f", &payload).IsCorruption());
}

TEST(SampleEnvelopeTest, DetectionDoesNotMisfireOnV1Payloads) {
  // A bare v1 sample payload, an SWV2 envelope and a bare manifest begin
  // with the magics older builds wrote: each is told apart from damage
  // and refused as an older format, naming the file.
  for (const uint32_t magic : {0x53575331u, 0x32565753u, 0x53574d31u}) {
    BinaryWriter writer;
    writer.PutFixed32(magic);
    writer.PutFixed32(7);
    std::string_view payload;
    const Status status =
        DecodeStoredFile(writer.buffer(), "store/ds.0.sample", &payload);
    EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
    EXPECT_NE(status.message().find("store/ds.0.sample"), std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace sampwh
