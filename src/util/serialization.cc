#include "src/util/serialization.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sampwh {

void BinaryWriter::PutFixed32(uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  buffer_.append(buf, 4);
}

void BinaryWriter::PutFixed64(uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  buffer_.append(buf, 8);
}

void BinaryWriter::PutVarint64(uint64_t v) {
  char buf[kMaxVarint64Bytes];
  buffer_.append(buf, EncodeVarint64(buf, v) - buf);
}

void BinaryWriter::PutVarintSigned64(int64_t v) {
  PutVarint64(ZigZagEncode64(v));
}

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(bits);
}

void BinaryWriter::PutString(std::string_view s) {
  PutVarint64(s.size());
  buffer_.append(s.data(), s.size());
}

void BinaryWriter::PutRaw(const void* data, size_t n) {
  buffer_.append(static_cast<const char*>(data), n);
}

char* BinaryWriter::GrowBy(size_t n) {
  const size_t start = buffer_.size();
  buffer_.resize(start + n);
  return buffer_.data() + start;
}

std::string BinaryWriter::Release() { return std::move(buffer_); }

Status VarintDecodeStatus(VarintDecode result) {
  return result == VarintDecode::kTruncated
             ? Status::OutOfRange("truncated varint64")
             : Status::Corruption("varint64 overflow");
}

Status BinaryReader::GetFixed32(uint32_t* v) {
  if (remaining() < 4) return Status::OutOfRange("truncated fixed32");
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status BinaryReader::GetFixed64(uint64_t* v) {
  if (remaining() < 8) return Status::OutOfRange("truncated fixed64");
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status BinaryReader::GetVarint64(uint64_t* v) {
  const char* p = data_.data() + pos_;
  const VarintDecode result =
      DecodeVarint64(&p, data_.data() + data_.size(), v);
  if (result != VarintDecode::kOk) return VarintDecodeStatus(result);
  pos_ = p - data_.data();
  return Status::OK();
}

Status BinaryReader::GetMinimalVarint64(uint64_t* v) {
  const size_t start = pos_;
  SAMPWH_RETURN_IF_ERROR(GetVarint64(v));
  if (pos_ - start != VarintLength(*v)) {
    pos_ = start;
    return Status::Corruption("non-minimal varint64");
  }
  return Status::OK();
}

Status BinaryReader::GetVarintSigned64(int64_t* v) {
  uint64_t encoded;
  SAMPWH_RETURN_IF_ERROR(GetVarint64(&encoded));
  *v = ZigZagDecode64(encoded);
  return Status::OK();
}

Status BinaryReader::GetDouble(double* v) {
  uint64_t bits;
  SAMPWH_RETURN_IF_ERROR(GetFixed64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status BinaryReader::GetString(std::string* s) {
  std::string_view view;
  SAMPWH_RETURN_IF_ERROR(GetStringView(&view));
  s->assign(view);
  return Status::OK();
}

Status BinaryReader::GetStringView(std::string_view* s) {
  uint64_t n;
  SAMPWH_RETURN_IF_ERROR(GetVarint64(&n));
  if (remaining() < n) return Status::OutOfRange("truncated string body");
  *s = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status BinaryReader::GetRaw(size_t n, std::string_view* bytes) {
  if (remaining() < n) return Status::OutOfRange("truncated raw bytes");
  *bytes = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

namespace {

// Slice-by-8 tables for the reflected 0xEDB88320 polynomial: kCrcTables[0]
// is the classic bytewise table, and kCrcTables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups fold eight input bytes
// into the register at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& Crc32Tables() {
  static const CrcTables kCrcTables = [] {
    CrcTables tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        const uint32_t prev = tables[k - 1][i];
        tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
      }
    }
    return tables;
  }();
  return kCrcTables;
}

uint32_t LoadLittleEndian32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Advances the (pre-inverted) CRC register `crc` over `n` bytes at `p`,
/// eight bytes per step, then bytewise for the tail.
uint32_t SliceBy8Update(uint32_t crc, const unsigned char* p, size_t n) {
  const CrcTables& t = Crc32Tables();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLittleEndian32(p) ^ crc;
    const uint32_t hi = LoadLittleEndian32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of 0xEDB88320; every constant is a reflected 33-bit
// residue. Four 128-bit lanes each fold 512 bits ahead (k1k2), the lanes
// then fold into one 128 bits at a time (k3k4), the remainder folds to 64
// bits (k4, then k5), and a Barrett reduction (poly = P and x^64 / P)
// leaves the 32-bit register.
#define SAMPWH_TARGET_PCLMUL __attribute__((target("pclmul,sse4.1")))

SAMPWH_TARGET_PCLMUL __m128i Load128(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One fold step: `acc` carried d bits ahead (the halves of `k` are
/// x^(d+32) and x^(d-32) mod P), plus the 128 bits `next` found there.
SAMPWH_TARGET_PCLMUL __m128i Fold128(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Advances the pre-inverted register `crc` over `n` bytes at `p`; `n` must
// be at least 64 and a multiple of 16.
SAMPWH_TARGET_PCLMUL uint32_t PclmulFold(uint32_t crc, const unsigned char* p,
                                         size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold128(x0, k1k2, Load128(p));
    x1 = Fold128(x1, k1k2, Load128(p + 16));
    x2 = Fold128(x2, k1k2, Load128(p + 32));
    x3 = Fold128(x3, k1k2, Load128(p + 48));
  }
  __m128i x = Fold128(x0, k3k4, x1);
  x = Fold128(x, k3k4, x2);
  x = Fold128(x, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = Fold128(x, k3k4, Load128(p));

  // 128 -> 64 bits, then 64 -> 32 bits of remainder still to reduce.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction to the 32-bit register.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool CpuHasPclmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#undef SAMPWH_TARGET_PCLMUL

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32SliceBy8(std::string_view data) {
  return SliceBy8Update(0xFFFFFFFFu,
                        reinterpret_cast<const unsigned char*>(data.data()),
                        data.size()) ^
         0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
#if defined(__x86_64__)
  static const bool kPclmul = CpuHasPclmul();
  if (kPclmul && n >= 64) {
    const size_t folded = n & ~size_t{15};
    crc = PclmulFold(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return SliceBy8Update(crc, p, n) ^ 0xFFFFFFFFu;
}

uint64_t ContentDigest(std::string_view payload) {
  return (static_cast<uint64_t>(Crc32(payload)) << 32) |
         (static_cast<uint64_t>(payload.size()) & 0xffffffffull);
}

void EncodeFrameHeader(char* out, std::string_view payload) {
  const uint32_t fields[] = {static_cast<uint32_t>(payload.size()),
                             Crc32(payload)};
  for (const uint32_t v : fields) {
    for (int i = 0; i < 4; ++i) *out++ = static_cast<char>(v >> (8 * i));
  }
}

void AppendFrame(std::string* out, std::string_view payload) {
  const size_t at = out->size();
  out->resize(at + kFrameHeaderBytes);
  EncodeFrameHeader(out->data() + at, payload);
  out->append(payload);
}

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  AppendFrame(&frame, payload);
  return frame;
}

FrameDecodeResult DecodeFrameHeader(std::string_view buffer,
                                    uint32_t max_frame_bytes,
                                    FrameHeader* header) {
  if (buffer.size() < kFrameHeaderBytes) {
    return FrameDecodeResult::kNeedMoreData;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(buffer.data());
  header->length = LoadLittleEndian32(p);
  header->crc = LoadLittleEndian32(p + 4);
  return header->length > max_frame_bytes ? FrameDecodeResult::kOversized
                                          : FrameDecodeResult::kOk;
}

bool FramePayloadMatches(const FrameHeader& header, std::string_view payload) {
  return Crc32(payload) == header.crc;
}

FrameDecodeResult DecodeFrame(std::string_view buffer,
                              uint32_t max_frame_bytes,
                              std::string_view* payload, size_t* frame_bytes) {
  FrameHeader header;
  const FrameDecodeResult parsed =
      DecodeFrameHeader(buffer, max_frame_bytes, &header);
  if (parsed != FrameDecodeResult::kOk) return parsed;
  if (buffer.size() - kFrameHeaderBytes < header.length) {
    return FrameDecodeResult::kNeedMoreData;
  }
  const std::string_view body = buffer.substr(kFrameHeaderBytes, header.length);
  if (!FramePayloadMatches(header, body)) return FrameDecodeResult::kBadCrc;
  *payload = body;
  *frame_bytes = kFrameHeaderBytes + header.length;
  return FrameDecodeResult::kOk;
}

FrameLogParse ParseFrameLog(std::string_view log, uint32_t max_record_bytes) {
  FrameLogParse parse;
  while (parse.valid_bytes < log.size()) {
    std::string_view payload;
    size_t frame_bytes = 0;
    if (DecodeFrame(log.substr(parse.valid_bytes), max_record_bytes, &payload,
                    &frame_bytes) != FrameDecodeResult::kOk) {
      parse.torn_tail = true;
      break;
    }
    parse.records.emplace_back(payload);
    parse.valid_bytes += frame_bytes;
  }
  return parse;
}

Status DecodeStoredFile(std::string_view file, std::string_view path,
                        std::string_view* payload) {
  FrameHeader header;
  if (DecodeFrameHeader(file, std::numeric_limits<uint32_t>::max(),
                        &header) == FrameDecodeResult::kOk &&
      file.size() - kFrameHeaderBytes == header.length &&
      FramePayloadMatches(header, file.substr(kFrameHeaderBytes))) {
    *payload = file.substr(kFrameHeaderBytes);
    return Status::OK();
  }
  // The leading magics of the stored files older builds wrote: the 20-byte
  // envelope around samples and checkpoints, and the bare manifest and
  // sample payloads from before it.
  constexpr std::pair<uint32_t, std::string_view> kOlderFormats[] = {
      {0x32565753, "SWV2 envelope"},
      {0x53574d31, "bare SWM1 manifest"},
      {0x53575331, "bare SWS1 sample"}};
  if (file.size() >= 4) {
    const uint32_t magic = LoadLittleEndian32(
        reinterpret_cast<const unsigned char*>(file.data()));
    for (const auto& [older, name] : kOlderFormats) {
      if (magic == older) {
        return Status::FailedPrecondition(
            std::string(path) + " is a " + std::string(name) +
            ", a stored format older than this build reads");
      }
    }
  }
  return Status::Corruption(std::string(path) +
                            " is not one whole stored frame (torn, "
                            "truncated or damaged)");
}

Status NameFileInRefusal(const Status& status, std::string_view path) {
  if (!status.IsFailedPrecondition()) return status;
  return Status::FailedPrecondition(std::string(path) + " holds a " +
                                    status.message());
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + tmp);
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool flush_ok = (std::fflush(f) == 0);
  const bool close_ok = (std::fclose(f) == 0);
  if (written != contents.size() || !flush_ok || !close_ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed for " + path);
  }
  return Status::OK();
}

Status AppendBytesToFile(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for append");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    return Status::IOError("short append to " + path);
  }
  return Status::OK();
}

Status ReadFile(const std::string& path, std::string* contents) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // Only a missing file (or a missing directory on its path) is absent;
    // EMFILE, EACCES, EIO and the like are faults a caller may retry.
    const int err = errno;
    if (err == ENOENT || err == ENOTDIR) {
      return Status::NotFound("cannot open " + path);
    }
    return Status::IOError("cannot open " + path + ": " + std::strerror(err));
  }
  contents->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents->append(buf, n);
  }
  const bool error = std::ferror(f) != 0;
  std::fclose(f);
  if (error) return Status::IOError("read failed for " + path);
  return Status::OK();
}

}  // namespace sampwh
