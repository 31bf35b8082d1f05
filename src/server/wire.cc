#include "src/server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <iterator>

#include "src/util/logging.h"

namespace sampwh {

bool IsKnownVerb(uint32_t verb) {
  switch (static_cast<Verb>(verb)) {
    case Verb::kPing:
    case Verb::kServerStats:
    case Verb::kShutdown:
    case Verb::kCreateTenant:
    case Verb::kSetTenantQuota:
    case Verb::kTenantStats:
    case Verb::kListTenants:
    case Verb::kCreateDataset:
    case Verb::kDropDataset:
    case Verb::kListDatasets:
    case Verb::kListPartitions:
    case Verb::kRollIn:
    case Verb::kRollInAt:
    case Verb::kRollOut:
    case Verb::kReplicaRollIn:
    case Verb::kQuery:
    case Verb::kPartitionDigests:
    case Verb::kIngestOpen:
    case Verb::kIngestFlush:
    case Verb::kIngestAppendBlock:
      return true;
  }
  return false;
}

// The block codec copies offsets with 8-byte memcpy, so it relies on the
// host order matching the wire's little-endian order.
static_assert(std::endian::native == std::endian::little);

void PutValueBlock(BinaryWriter* writer, std::span<const Value> values) {
  writer->PutVarint64(values.size());
  if (values.empty()) return;
  // A plain min/max loop: std::minmax_element branches on every element.
  Value min = values[0], max = values[0];
  for (const Value v : values) {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  const uint64_t base = static_cast<uint64_t>(min);
  const uint64_t range = static_cast<uint64_t>(max) - base;
  const size_t width =
      std::max<size_t>(1, (static_cast<size_t>(std::bit_width(range)) + 7) / 8);
  writer->PutFixed64(base);
  const char width_byte = static_cast<char>(width);
  writer->PutRaw(&width_byte, 1);
  // Each offset is stored as a full 8-byte word at a `width` stride; the
  // slack word at the end absorbs the last store and is trimmed.
  std::string block(values.size() * width + sizeof(uint64_t), '\0');
  char* out = block.data();
  for (const Value v : values) {
    const uint64_t offset = static_cast<uint64_t>(v) - base;
    std::memcpy(out, &offset, sizeof(offset));
    out += width;
  }
  writer->PutRaw(block.data(), values.size() * width);
}

Status GetValueBlock(BinaryReader* reader, std::vector<Value>* values) {
  values->clear();
  uint64_t n = 0;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&n));
  if (n == 0) return Status::OK();
  uint64_t base = 0;
  std::string_view width_byte;
  SAMPWH_RETURN_IF_ERROR(reader->GetFixed64(&base));
  SAMPWH_RETURN_IF_ERROR(reader->GetRaw(1, &width_byte));
  const size_t width = static_cast<unsigned char>(width_byte[0]);
  if (width < 1 || width > 8) {
    return Status::Corruption("value block width " + std::to_string(width) +
                              " outside 1..8");
  }
  if (n > reader->remaining() / width) {
    return Status::OutOfRange("value block of " + std::to_string(n) +
                              " values overruns its input");
  }
  std::string_view bytes;
  SAMPWH_RETURN_IF_ERROR(reader->GetRaw(n * width, &bytes));
  values->resize(n);
  const uint64_t mask =
      width == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * width)) - 1;
  // Full 8-byte loads while 8 bytes remain, then exact-width loads.
  const size_t wide = bytes.size() >= 8 ? (bytes.size() - 8) / width + 1 : 0;
  const char* in = bytes.data();
  Value* out = values->data();
  size_t i = 0;
  for (; i < wide; ++i, in += width) {
    uint64_t offset;
    std::memcpy(&offset, in, sizeof(offset));
    out[i] = static_cast<Value>(base + (offset & mask));
  }
  for (; i < n; ++i, in += width) {
    uint64_t offset = 0;
    std::memcpy(&offset, in, width);
    out[i] = static_cast<Value>(base + offset);
  }
  return Status::OK();
}

void PutTenantQuota(BinaryWriter* writer, const TenantQuota& quota) {
  writer->PutVarint64(quota.max_bytes);
  writer->PutVarint64(quota.max_partitions);
  writer->PutVarint64(quota.max_datasets);
}

Status GetTenantQuota(BinaryReader* reader, TenantQuota* quota) {
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&quota->max_bytes));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&quota->max_partitions));
  return reader->GetVarint64(&quota->max_datasets);
}

void PutServerStats(BinaryWriter* writer, const ServerStatsSnapshot& stats) {
  for (const auto& row : kServerCounters) {
    writer->PutVarint64(stats.*row.field);
  }
}

Status GetServerStats(BinaryReader* reader, ServerStatsSnapshot* stats) {
  *stats = {};
  for (size_t read = 0; read < std::size(kServerCounters); ++read) {
    // The groups the body grew in end after 6, 8 and 13 fields.
    const bool group_end = read == 6 || read == 8 || read >= 13;
    if (group_end && reader->AtEnd()) break;
    SAMPWH_RETURN_IF_ERROR(
        reader->GetVarint64(&(stats->*kServerCounters[read].field)));
  }
  return Status::OK();
}

void PutAnswerTag(BinaryWriter* writer, const AnswerTag& tag) {
  writer->PutVarint64(tag.nonce);
  writer->PutVarint64(tag.version);
}

Status GetAnswerTag(BinaryReader* reader, AnswerTag* tag) {
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&tag->nonce));
  return reader->GetVarint64(&tag->version);
}

void BeginRequest(BinaryWriter* writer, Verb verb,
                  const RequestHeader& header) {
  if (header.deadline_millis == 0 && header.flags == 0 && !header.held) {
    // No header state: stay on the v1 head an old server understands.
    writer->PutFixed32(kWireRequestMagic);
    writer->PutFixed32(static_cast<uint32_t>(verb));
    return;
  }
  writer->PutFixed32(kWireRequestMagicV2);
  writer->PutFixed32(static_cast<uint32_t>(verb));
  BinaryWriter ext;
  ext.PutVarint64(header.deadline_millis);
  ext.PutVarint64(header.flags |
                  (header.held ? kRequestFlagHeldAnswer : uint64_t{0}));
  if (header.held) PutAnswerTag(&ext, *header.held);
  writer->PutString(ext.Release());
}

Status ParseRequestHead(BinaryReader* reader, uint32_t* verb,
                        RequestHeader* header) {
  *header = RequestHeader{};
  uint32_t magic = 0;
  SAMPWH_RETURN_IF_ERROR(reader->GetFixed32(&magic));
  if (magic != kWireRequestMagic && magic != kWireRequestMagicV2) {
    return Status::InvalidArgument("bad request magic");
  }
  SAMPWH_RETURN_IF_ERROR(reader->GetFixed32(verb));
  if (magic == kWireRequestMagicV2) {
    std::string ext;
    SAMPWH_RETURN_IF_ERROR(reader->GetString(&ext));
    // Known prefix of the extension; a longer blob from a newer client is
    // fine — unread trailing fields are exactly what "append, never
    // renumber" buys.
    BinaryReader ext_reader(ext);
    SAMPWH_RETURN_IF_ERROR(ext_reader.GetVarint64(&header->deadline_millis));
    SAMPWH_RETURN_IF_ERROR(ext_reader.GetVarint64(&header->flags));
    if ((header->flags & kRequestFlagHeldAnswer) != 0) {
      SAMPWH_RETURN_IF_ERROR(
          GetAnswerTag(&ext_reader, &header->held.emplace()));
    }
  }
  return Status::OK();
}

void BeginResponse(BinaryWriter* writer, const Status& status) {
  writer->PutFixed32(kWireResponseMagic);
  writer->PutFixed32(static_cast<uint32_t>(status.code()));
  writer->PutString(status.message());
}

Status StatusFromWire(uint32_t code, std::string message) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(message));
    case StatusCode::kIOError:
      return Status::IOError(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
  }
  return Status::Internal("unknown wire status code " + std::to_string(code) +
                          ": " + message);
}

Status ParseResponseHead(BinaryReader* reader) {
  uint32_t magic = 0;
  SAMPWH_RETURN_IF_ERROR(reader->GetFixed32(&magic));
  if (magic != kWireResponseMagic) {
    return Status::Corruption("bad response magic");
  }
  uint32_t code = 0;
  SAMPWH_RETURN_IF_ERROR(reader->GetFixed32(&code));
  std::string message;
  SAMPWH_RETURN_IF_ERROR(reader->GetString(&message));
  return StatusFromWire(code, std::move(message));
}

ResponseFrame::ResponseFrame() { body_.GrowBy(kHeadroomBytes); }

void ResponseFrame::SealOk(bool length_prefixed, std::string_view trailer) {
  const size_t body_end = body_.size();
  body_.PutRaw(trailer.data(), trailer.size());
  char* const frame = body_.mutable_data();
  const char* const end = frame + body_.size();
  char* p = frame + kHeadroomBytes;
  const auto prepend = [frame, &p](std::string_view bytes) {
    SAMPWH_CHECK(static_cast<size_t>(p - frame) >= bytes.size());
    p -= bytes.size();
    std::memcpy(p, bytes.data(), bytes.size());
  };
  if (length_prefixed) {
    char length[kMaxVarint64Bytes];
    prepend(std::string_view(
        length, EncodeVarint64(length, frame + body_end - p) - length));
  }
  BinaryWriter head;
  BeginResponse(&head, Status::OK());
  prepend(head.buffer());
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(header, std::string_view(p, end - p));
  prepend(std::string_view(header, sizeof(header)));
  start_ = p - frame;
}

void ResponseFrame::SealError(const Status& status) {
  BinaryWriter payload;
  BeginResponse(&payload, status);
  body_ = BinaryWriter();
  const std::string frame = EncodeFrame(payload.buffer());
  body_.PutRaw(frame.data(), frame.size());
  start_ = 0;
}

Status WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadExact(int fd, size_t n, std::string* out) {
  out->resize(n);
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out->data() + got, n - got, 0);
    if (r == 0) {
      return got == 0 ? Status::NotFound("connection closed")
                      : Status::IOError("connection closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (got == 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Status::DeadlineExceeded("recv: read timeout");
      }
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFrame(int fd, std::string_view payload) {
  return WriteAll(fd, EncodeFrame(payload));
}

Status ReadFrame(int fd, uint32_t max_frame_bytes, std::string* payload) {
  std::string header_bytes;
  SAMPWH_RETURN_IF_ERROR(ReadExact(fd, kFrameHeaderBytes, &header_bytes));
  FrameHeader header;
  if (DecodeFrameHeader(header_bytes, max_frame_bytes, &header) ==
      FrameDecodeResult::kOversized) {
    return Status::OutOfRange("frame of " + std::to_string(header.length) +
                              " bytes exceeds the " +
                              std::to_string(max_frame_bytes) + "-byte bound");
  }
  std::string body;
  const Status read = ReadExact(fd, header.length, &body);
  if (!read.ok()) {
    // EOF or a timeout exactly between header and body is still a
    // mid-frame tear.
    return read.IsNotFound() || read.IsDeadlineExceeded()
               ? Status::IOError(read.message())
               : read;
  }
  if (!FramePayloadMatches(header, body)) {
    return Status::Corruption("frame CRC mismatch");
  }
  *payload = std::move(body);
  return Status::OK();
}

}  // namespace sampwh
