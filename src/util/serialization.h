// Binary serialization with bounds-checked decoding. Partition samples are
// persisted in the sample warehouse with varint-compressed counts, so a
// compact histogram stays compact on disk as well as in memory.

#ifndef SAMPWH_UTIL_SERIALIZATION_H_
#define SAMPWH_UTIL_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace sampwh {

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

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }
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
  Status GetVarintSigned64(int64_t* v);
  Status GetDouble(double* v);
  Status GetString(std::string* s);
  /// Views the next `n` raw bytes (no length prefix) inside the input.
  Status GetRaw(size_t n, std::string_view* bytes);

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

// --- Versioned sample-file envelope (on-disk format v2) --------------------
//
// Every persisted sample is framed so that truncated, torn or bit-rotted
// files are DETECTED on read instead of being silently deserialized:
//
//   fixed32  magic       "SWV2" (little-endian bytes on disk)
//   fixed32  version     kSampleEnvelopeVersion
//   fixed64  payload size in bytes
//   fixed32  CRC-32 of the payload
//   payload  the v1 sample encoding (which begins with its own magic)
//
// v1 files — bare payloads written before the envelope existed — remain
// read-compatible: they start with the sample magic, not the envelope
// magic, and readers fall back to decoding them directly.

inline constexpr uint32_t kSampleEnvelopeMagic = 0x32565753;  // "SWV2"
inline constexpr uint32_t kSampleEnvelopeVersion = 2;
inline constexpr size_t kSampleEnvelopeHeaderBytes = 20;

// The envelope carries no record-type field of its own: the payload's
// leading fixed32 magic identifies the record. Four record types exist:
//
//   kSampleFormatMagic (sample.cc)  — a finalized PartitionSample
//   kSamplerStateRecordMagic        — a mid-stream AnySampler::SaveState
//   kCheckpointRecordMagic          — a StreamIngestor ingest checkpoint
//                                     (which embeds a sampler-state record)
//   kCheckpointDeltaRecordMagic     — a delta-journal record chained onto a
//                                     checkpoint snapshot (WAL framing, not
//                                     the envelope: each record carries its
//                                     own length+CRC header)
//
// The first three ride through WrapSampleEnvelope / UnwrapSampleEnvelope,
// so the CRC layer verifies every persisted record kind uniformly; delta
// records are CRC-framed per record inside the checkpoint WAL instead.
inline constexpr uint32_t kSamplerStateRecordMagic = 0x53535753;  // "SWSS"
inline constexpr uint32_t kCheckpointRecordMagic = 0x504b4357;    // "WCKP"
inline constexpr uint32_t kCheckpointDeltaRecordMagic = 0x544C4457;  // "WDLT"

/// Frames `payload` in a v2 envelope (header + payload bytes).
std::string WrapSampleEnvelope(std::string_view payload);

/// True when `file` begins with the v2 envelope magic (it may still be
/// truncated or corrupt; UnwrapSampleEnvelope verifies).
bool HasSampleEnvelope(std::string_view file);

/// Verifies the envelope framing of `file` (magic, version, payload size,
/// CRC) and on success points `*payload` at the payload bytes inside
/// `file`. Any mismatch — truncation, tear, bit flip, unknown version — is
/// Corruption; the payload is never handed out unverified.
Status UnwrapSampleEnvelope(std::string_view file, std::string_view* payload);

/// Writes `contents` to `path` atomically (write to a temp file in the same
/// directory, then rename).
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Reads the whole file at `path` into `*contents`.
Status ReadFile(const std::string& path, std::string* contents);

}  // namespace sampwh

#endif  // SAMPWH_UTIL_SERIALIZATION_H_
