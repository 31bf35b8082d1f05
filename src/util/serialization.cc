#include "src/util/serialization.h"

#include <array>
#include <cstdio>
#include <cstring>

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
  while (v >= 0x80) {
    buffer_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<char>(v));
}

void BinaryWriter::PutVarintSigned64(int64_t v) {
  // Zig-zag: map sign bit into bit 0 so small magnitudes stay short.
  const uint64_t encoded =
      (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  PutVarint64(encoded);
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

Status BinaryReader::GetVarintSigned64(int64_t* v) {
  uint64_t encoded;
  SAMPWH_RETURN_IF_ERROR(GetVarint64(&encoded));
  *v = static_cast<int64_t>((encoded >> 1) ^ (~(encoded & 1) + 1));
  return Status::OK();
}

Status BinaryReader::GetDouble(double* v) {
  uint64_t bits;
  SAMPWH_RETURN_IF_ERROR(GetFixed64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status BinaryReader::GetString(std::string* s) {
  uint64_t n;
  SAMPWH_RETURN_IF_ERROR(GetVarint64(&n));
  if (remaining() < n) return Status::OutOfRange("truncated string body");
  s->assign(data_.data() + pos_, n);
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

}  // namespace

uint32_t Crc32(std::string_view data) {
  const CrcTables& t = Crc32Tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
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
  return crc ^ 0xFFFFFFFFu;
}

std::string WrapSampleEnvelope(std::string_view payload) {
  BinaryWriter writer;
  writer.PutFixed32(kSampleEnvelopeMagic);
  writer.PutFixed32(kSampleEnvelopeVersion);
  writer.PutFixed64(payload.size());
  writer.PutFixed32(Crc32(payload));
  writer.PutRaw(payload.data(), payload.size());
  return writer.Release();
}

bool HasSampleEnvelope(std::string_view file) {
  uint32_t magic;
  BinaryReader reader(file);
  return reader.GetFixed32(&magic).ok() && magic == kSampleEnvelopeMagic;
}

Status UnwrapSampleEnvelope(std::string_view file, std::string_view* payload) {
  BinaryReader reader(file);
  uint32_t magic;
  if (!reader.GetFixed32(&magic).ok() || magic != kSampleEnvelopeMagic) {
    return Status::Corruption("bad sample envelope magic");
  }
  uint32_t version;
  uint64_t payload_size;
  uint32_t crc;
  if (!reader.GetFixed32(&version).ok() ||
      !reader.GetFixed64(&payload_size).ok() || !reader.GetFixed32(&crc).ok()) {
    return Status::Corruption("truncated sample envelope header");
  }
  if (version != kSampleEnvelopeVersion) {
    return Status::Corruption("unsupported sample envelope version " +
                              std::to_string(version));
  }
  if (reader.remaining() != payload_size) {
    return Status::Corruption("sample envelope payload size mismatch (torn "
                              "or truncated file)");
  }
  const std::string_view body = file.substr(kSampleEnvelopeHeaderBytes);
  if (Crc32(body) != crc) {
    return Status::Corruption("sample payload CRC mismatch");
  }
  *payload = body;
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + tmp);
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool flush_ok = (std::fflush(f) == 0);
  std::fclose(f);
  if (written != contents.size() || !flush_ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed for " + path);
  }
  return Status::OK();
}

Status ReadFile(const std::string& path, std::string* contents) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
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
