// Binary serialization with bounds-checked decoding. Partition samples are
// persisted in the sample warehouse with varint-compressed counts, so a
// compact histogram stays compact on disk as well as in memory.

#ifndef SAMPWH_UTIL_SERIALIZATION_H_
#define SAMPWH_UTIL_SERIALIZATION_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace sampwh {

// --- The LEB128 varint kernel ------------------------------------------------
//
// The one byte loop of the varint format: every varint the warehouse writes
// or reads goes through EncodeVarint64 / DecodeVarint64, whether one at a
// time through BinaryWriter / BinaryReader or in bulk by a codec that walks
// raw pointers (the histogram codec).

/// Longest LEB128 encoding of a uint64: ten bytes, the tenth holding bit 63.
inline constexpr size_t kMaxVarint64Bytes = 10;

/// Bytes EncodeVarint64 writes for `v`: 1 to kMaxVarint64Bytes.
inline constexpr size_t VarintLength(uint64_t v) {
  return (std::bit_width(v | 1) + 6) / 7;
}

/// Writes `v` as LEB128 at `p`, which must have room for kMaxVarint64Bytes,
/// and returns one past the last byte written.
inline char* EncodeVarint64(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Zig-zag map of a signed integer: the sign goes to bit 0 so that small
/// magnitudes of either sign encode short.
inline uint64_t ZigZagEncode64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode64(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Outcome of DecodeVarint64.
enum class VarintDecode {
  kOk,         ///< decoded; the cursor moved past the varint
  kTruncated,  ///< the input ended inside the varint (OutOfRange)
  kMalformed,  ///< a tenth byte above 1 overflows 64 bits (Corruption)
};

/// Decodes one LEB128 varint from [*p, end) into `*v`. Only on kOk does
/// `*p` advance; it never reads at or past `end`. Non-minimal encodings
/// (a padded 0x80 0x00) decode to their value, as they always have.
inline VarintDecode DecodeVarint64(const char** p, const char* end,
                                   uint64_t* v) {
  const auto* in = reinterpret_cast<const unsigned char*>(*p);
  const auto* limit = reinterpret_cast<const unsigned char*>(end);
  uint64_t out = 0;
  for (int shift = 0;; shift += 7) {
    if (in == limit) return VarintDecode::kTruncated;
    const uint64_t byte = *in++;
    if (shift == 63 && byte > 1) return VarintDecode::kMalformed;
    out |= (byte & 0x7f) << shift;
    if (byte < 0x80) break;
  }
  *v = out;
  *p = reinterpret_cast<const char*>(in);
  return VarintDecode::kOk;
}

/// The Status a failed DecodeVarint64 reports: OutOfRange for kTruncated,
/// Corruption for kMalformed.
Status VarintDecodeStatus(VarintDecode result);

/// Append-only encoder for the warehouse on-disk format.
class BinaryWriter {
 public:
  /// Little-endian fixed-width integers.
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  /// LEB128 variable-length unsigned integer (1-10 bytes).
  void PutVarint64(uint64_t v);
  /// Zig-zag-mapped signed integer, then varint.
  void PutVarintSigned64(int64_t v);
  /// IEEE-754 double, bit-cast through a fixed 64.
  void PutDouble(double v);
  /// Length-prefixed (varint) byte string.
  void PutString(std::string_view s);
  /// Raw bytes with no length prefix.
  void PutRaw(const void* data, size_t n);

  /// Grows the buffer by `n` zero bytes and returns where they start, for
  /// a bulk encoder that sized its output and writes through the pointer.
  char* GrowBy(size_t n);
  /// Makes room for `n` more bytes, so that appending them does not move
  /// the buffer.
  void Reserve(size_t n) { buffer_.reserve(buffer_.size() + n); }

  const std::string& buffer() const { return buffer_; }
  /// The bytes written so far, for patching in place (nothing is added).
  char* mutable_data() { return buffer_.data(); }
  /// Hands the bytes over.
  std::string Release();
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Decoder over a borrowed byte range; every Get returns OutOfRange on
/// truncated input and Corruption on malformed varints, never reads past
/// the end.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data), pos_(0) {}

  Status GetFixed32(uint32_t* v);
  Status GetFixed64(uint64_t* v);
  Status GetVarint64(uint64_t* v);
  /// GetVarint64 that also rejects a non-minimal encoding (a padded
  /// 0x80 0x00) as Corruption: canonical formats, where every accepted
  /// input must be the one encoding of what it decodes to, read with it.
  Status GetMinimalVarint64(uint64_t* v);
  Status GetVarintSigned64(int64_t* v);
  Status GetDouble(double* v);
  Status GetString(std::string* s);
  /// Views a length-prefixed byte string inside the input (no copy).
  Status GetStringView(std::string_view* s);
  /// Views the next `n` raw bytes (no length prefix) inside the input.
  Status GetRaw(size_t n, std::string_view* bytes);

  /// The bytes not yet consumed, for a bulk decoder that walks them and
  /// then calls Skip with how many it used.
  std::string_view rest() const { return data_.substr(pos_); }
  /// Consumes `n` bytes (at most remaining()).
  void Skip(size_t n) { pos_ += n; }

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_;
};

/// CRC-32 (reflected polynomial 0xEDB88320 — the zlib/PNG checksum) of
/// `data`. Detects every single- and double-bit error at the payload sizes
/// the warehouse stores. On x86-64 CPUs with PCLMULQDQ and SSE4.1, inputs
/// of 64 bytes or more fold 64 bytes per step with carry-less multiplies
/// (the tail goes through slice-by-8); elsewhere slice-by-8 does it all.
/// Both paths return the same value on every input.
uint32_t Crc32(std::string_view data);

/// The portable slice-by-8 CRC-32 (eight table lookups per eight bytes):
/// the reference the dispatched Crc32 must agree with on every input.
uint32_t Crc32SliceBy8(std::string_view data);

/// Content digest of a serialized payload: its CRC-32 in the high half, its
/// length (mod 2^32) in the low half. A sample serializes to the same bytes
/// on every node, so replicas holding equal digests hold equal content.
uint64_t ContentDigest(std::string_view payload);

// --- The CRC frame -----------------------------------------------------------
//
// Every wire request and response, every checkpoint WAL record and every
// catalog log record is one frame: fixed32 payload length (little-endian,
// bounded by the reader), fixed32 CRC-32 of the payload, then the payload.
// A log is a run of frames, so a tear or a bit flip is caught at the record
// it hits and the frames before it stay readable. Every stored file is one
// frame too (see "Stored files" below).

inline constexpr size_t kFrameHeaderBytes = 8;

/// Writes the header (length, CRC) of the frame of `payload` to the
/// kFrameHeaderBytes at `out`.
void EncodeFrameHeader(char* out, std::string_view payload);
/// Appends the frame of `payload` to `*out`, or returns it on its own.
void AppendFrame(std::string* out, std::string_view payload);
std::string EncodeFrame(std::string_view payload);

/// Outcome of pulling one frame out of a byte buffer.
enum class FrameDecodeResult {
  kOk,            ///< *payload points into `buffer`; *frame_bytes set
  kNeedMoreData,  ///< the buffer holds a prefix of a valid-looking frame
  kOversized,     ///< declared length exceeds `max_frame_bytes`
  kBadCrc,        ///< payload bytes fail the CRC check
};

/// A frame header as read, before the payload is checked.
struct FrameHeader {
  uint32_t length = 0;
  uint32_t crc = 0;
};

/// Parses the header at the front of `buffer` and applies the length bound:
/// kNeedMoreData when fewer than kFrameHeaderBytes are there, kOversized
/// when the declared length exceeds `max_frame_bytes`, else kOk.
FrameDecodeResult DecodeFrameHeader(std::string_view buffer,
                                    uint32_t max_frame_bytes,
                                    FrameHeader* header);

/// True when `payload` (header.length bytes) has the CRC `header` declares.
bool FramePayloadMatches(const FrameHeader& header, std::string_view payload);

/// Attempts to decode one frame from the front of `buffer`. On kOk,
/// `*payload` views the payload inside `buffer` and `*frame_bytes` is the
/// total frame size to consume. kOversized and kBadCrc are unrecoverable
/// for a stream (framing is lost); the caller should drop it.
FrameDecodeResult DecodeFrame(std::string_view buffer, uint32_t max_frame_bytes,
                              std::string_view* payload, size_t* frame_bytes);

/// A frame log — a file that is a run of frames, one per record, appended
/// to and never rewritten in place — as parsed by ParseFrameLog.
struct FrameLogParse {
  /// Record payloads whose framing and CRC verified, in append order.
  std::vector<std::string> records;
  /// Length of the log prefix covering exactly those records.
  size_t valid_bytes = 0;
  /// Bytes remained past the valid prefix (torn append or corruption).
  bool torn_tail = false;
};

/// Scans `log` front to back, stopping at the first frame that does not
/// decode (or declares more than `max_record_bytes`): a tear at the tail or
/// a bit flip ends the scan, and the intact prefix stays loadable.
/// Structural only — record payloads are not decoded here.
FrameLogParse ParseFrameLog(std::string_view log, uint32_t max_record_bytes);

// --- Stored files ------------------------------------------------------------
//
// Every file the warehouse stores whole and replaces atomically is exactly
// one frame, and the payload's leading fixed32 magic names the record:
//
//   kSampleFormatMagic (sample.cc)    "SWS2"  a finalized PartitionSample
//   kCheckpointRecordMagic            "WCKP"  an ingest checkpoint snapshot
//   kManifestMagic (catalog.cc)       "SWM2"  a catalog (MANIFEST) snapshot
//
// Two more records live inside others: a mid-stream AnySampler::SaveState
// inside a checkpoint, and a checkpoint delta as one frame of a WAL.
inline constexpr uint32_t kSamplerStateRecordMagic = 0x53535753;  // "SWSS"
inline constexpr uint32_t kCheckpointRecordMagic = 0x504b4357;    // "WCKP"
inline constexpr uint32_t kCheckpointDeltaRecordMagic = 0x544C4457;  // "WDLT"

/// Decodes the stored file read from `path`: exactly one frame spanning
/// `file`, whose payload `*payload` then views. Truncation, trailing bytes
/// and a CRC mismatch are Corruption. A file that is no frame but opens
/// with a magic an older build began its stored files with (the "SWV2"
/// envelope, a bare "SWM1" manifest or "SWS1" sample) is FailedPrecondition
/// naming `path`: this build reads only what it writes, and such a file is
/// refused, never taken for damage.
Status DecodeStoredFile(std::string_view file, std::string_view path,
                        std::string_view* payload);

/// `status` with `path` named in it when it is FailedPrecondition: the
/// refusal of a record, decoded from the stored file or log at `path`, of
/// a layout this build does not read. Any other status is returned as it
/// is.
Status NameFileInRefusal(const Status& status, std::string_view path);

/// Writes `contents` to `path` atomically (write to a temp file in the same
/// directory, then rename).
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Appends `bytes` to `path` (created if absent). Deliberately NOT atomic:
/// WAL appends rely on per-record CRC framing instead — a tear at the tail
/// is detected and dropped on read.
Status AppendBytesToFile(const std::string& path, std::string_view bytes);

/// Reads the whole file at `path` into `*contents`. NotFound only when the
/// file or a directory on its path is missing; any other failure to open
/// (permissions, descriptor exhaustion, a name too long, IO) is IOError.
Status ReadFile(const std::string& path, std::string* contents);

}  // namespace sampwh

#endif  // SAMPWH_UTIL_SERIALIZATION_H_
