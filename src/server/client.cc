#include "src/server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace sampwh {

namespace {

/// Reads a listing's entry count and rejects one the rest of the body
/// cannot hold at `min_entry_bytes` per entry, before anything is reserved
/// for it: the count comes from the peer.
Status GetEntryCount(BinaryReader* reader, size_t min_entry_bytes,
                     uint64_t* n) {
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(n));
  if (*n > reader->remaining() / min_entry_bytes) {
    return Status::Corruption("entry count " + std::to_string(*n) +
                              " exceeds the response body");
  }
  return Status::OK();
}

void PutScope(BinaryWriter* w, const std::string& tenant,
              const std::string& dataset) {
  w->PutString(tenant);
  w->PutString(dataset);
}

/// Verbs the retry driver may transparently re-attempt after a transport
/// failure. Reads and listings are naturally idempotent; the streaming
/// ingest verbs are idempotent by construction (the server's sequence
/// watermark acknowledges and skips re-driven batches). Roll-ins, admin
/// mutations and shutdown are NOT here: a lost response leaves their
/// outcome ambiguous, and a blind re-drive could duplicate a partition.
bool IsIdempotent(Verb verb) {
  switch (verb) {
    case Verb::kPing:
    case Verb::kServerStats:
    case Verb::kTenantStats:
    case Verb::kListTenants:
    case Verb::kListDatasets:
    case Verb::kListPartitions:
    case Verb::kQuery:
    case Verb::kPartitionDigests:
    case Verb::kIngestOpen:
    case Verb::kIngestAppendBlock:
    case Verb::kIngestFlush:
    // Replica placement is digest-idempotent by design: an existing copy
    // with matching content acks as a no-op, so a re-driven write after a
    // lost response converges instead of duplicating.
    case Verb::kReplicaRollIn:
      return true;
    case Verb::kShutdown:
    case Verb::kCreateTenant:
    case Verb::kSetTenantQuota:
    case Verb::kCreateDataset:
    case Verb::kDropDataset:
    case Verb::kRollIn:
    case Verb::kRollInAt:
    case Verb::kRollOut:
      return false;
  }
  return false;
}

/// Opens a socket to host:port with the options' connect timeout applied
/// (non-blocking connect + poll, then back to blocking), TCP_NODELAY and
/// the recv timeout set.
Result<int> OpenSocket(const std::string& host, uint16_t port,
                       const ClientOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable host: " + host);
  }
  const std::string peer = host + ":" + std::to_string(port);

  if (options.connect_timeout_millis > 0) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS) {
      const Status st = Status::IOError("connect " + peer + ": " +
                                        std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (rc < 0) {
      pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      const int ready = ::poll(&pfd, 1, options.connect_timeout_millis);
      if (ready <= 0) {
        ::close(fd);
        return Status::DeadlineExceeded(
            "connect " + peer + ": timed out after " +
            std::to_string(options.connect_timeout_millis) + " ms");
      }
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr != 0) {
        ::close(fd);
        return Status::IOError("connect " + peer + ": " +
                               std::strerror(soerr));
      }
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking for request IO
  } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    const Status st =
        Status::IOError("connect " + peer + ": " + std::strerror(errno));
    ::close(fd);
    return st;
  }

  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options.read_timeout_millis > 0) {
    timeval tv{};
    tv.tv_sec = options.read_timeout_millis / 1000;
    tv.tv_usec = (options.read_timeout_millis % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

/// True when a pooled connection is readable before a request is sent:
/// the peer closed it (EOF or a reset), or wrote bytes that answer nothing.
/// Either way a reply read from it would not be the next request's.
bool StaleBeforeSend(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, 0) <= 0) return false;
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  return n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
}

}  // namespace

WarehouseClient::WarehouseClient(int fd, std::string host, uint16_t port,
                                 ClientOptions options)
    : fd_(fd),
      host_(std::move(host)),
      port_(port),
      options_(options),
      deadline_millis_(options.deadline_millis),
      jitter_rng_(options.seed, /*stream=*/0x524a) {}

WarehouseClient::~WarehouseClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WarehouseClient>> WarehouseClient::Connect(
    const std::string& host, uint16_t port, ClientOptions options) {
  SAMPWH_ASSIGN_OR_RETURN(const int fd, OpenSocket(host, port, options));
  return std::unique_ptr<WarehouseClient>(
      new WarehouseClient(fd, host, port, options));
}

std::unique_ptr<WarehouseClient> WarehouseClient::Open(const std::string& host,
                                                       uint16_t port,
                                                       ClientOptions options) {
  return std::unique_ptr<WarehouseClient>(
      new WarehouseClient(-1, host, port, options));
}

Status WarehouseClient::Reconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  SAMPWH_ASSIGN_OR_RETURN(fd_, OpenSocket(host_, port_, options_));
  broken_ = Status::OK();
  stats_.reconnects++;
  return Status::OK();
}

bool WarehouseClient::breaker_open() const {
  return options_.breaker_failure_threshold > 0 &&
         SteadyNow() < breaker_open_until_;
}

void WarehouseClient::NoteTransportFailure() {
  stats_.transport_errors++;
  if (options_.breaker_failure_threshold == 0) return;
  if (++consecutive_failures_ >= options_.breaker_failure_threshold) {
    breaker_open_until_ =
        SteadyNow() +
        std::chrono::milliseconds(options_.breaker_open_millis);
    stats_.breaker_open_total++;
    // A half-open probe that fails re-opens from a fresh streak.
    consecutive_failures_ = 0;
  }
}

void WarehouseClient::NoteTransportSuccess() {
  consecutive_failures_ = 0;
  breaker_open_until_ = SteadyTime::min();
}

Result<WarehouseClient::Reply> WarehouseClient::CallOnce(
    std::string_view request) {
  Status st = WriteFrame(fd_, request);
  if (!st.ok()) {
    broken_ = st;
    return st;
  }
  Reply reply;
  st = ReadFrame(fd_, options_.max_frame_bytes, &reply.payload);
  if (!st.ok()) {
    // Clean EOF here means the server closed on us mid-conversation.
    broken_ = st.IsNotFound() ? Status::IOError("server closed connection")
                              : st;
    return broken_;
  }
  BinaryReader reader(reply.payload);
  SAMPWH_RETURN_IF_ERROR(ParseResponseHead(&reader));
  reply.body_offset = reply.payload.size() - reader.remaining();
  return reply;
}

Result<WarehouseClient::Reply> WarehouseClient::Call(
    Verb verb, std::string_view body, std::optional<AnswerTag> held) {
  BinaryWriter req;
  RequestHeader header;
  header.deadline_millis = deadline_millis_;
  header.flags = request_flags_;
  header.held = held;
  BeginRequest(&req, verb, header);
  req.PutRaw(body.data(), body.size());
  const std::string request = req.Release();
  // A frame the server must refuse would break the connection mid-send and
  // count as a transport failure on every retry; it is the caller's error,
  // so it never reaches the network, the retry driver or the breaker.
  if (request.size() > options_.max_frame_bytes) {
    return Status::InvalidArgument(
        "request of " + std::to_string(request.size()) +
        " bytes exceeds the " + std::to_string(options_.max_frame_bytes) +
        "-byte frame bound");
  }

  // Fail fast while the breaker is open: a known-down peer should cost a
  // map probe, not a connect timeout. Once the open window lapses the next
  // call is the half-open probe.
  if (breaker_open()) {
    return Status::Unavailable("circuit breaker open to " + host_ + ":" +
                               std::to_string(port_));
  }

  const uint32_t attempts =
      IsIdempotent(verb) ? options_.max_retries + 1 : 1;
  uint64_t backoff = options_.backoff_initial_millis;
  Status last = Status::OK();
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      stats_.retries_attempted++;
      // Seeded jitter in [backoff/2, backoff]: staggers a thundering herd
      // of retrying clients while staying reproducible from the seed.
      const uint64_t low = backoff / 2;
      const uint64_t sleep_ms = low + jitter_rng_.UniformInt(backoff - low + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff = std::min(backoff * 2, options_.backoff_max_millis);
      if (breaker_open()) break;  // opened by the previous failed attempt
    }
    // A server closes a connection that idles past its read timeout;
    // nothing has been sent on it yet, so reconnecting is safe for every
    // verb and spends no retry.
    if (!broken_.ok() || fd_ < 0 || StaleBeforeSend(fd_)) {
      last = Reconnect();
      if (!last.ok()) {
        broken_ = last;
        NoteTransportFailure();
        continue;
      }
    }
    Result<Reply> result = CallOnce(request);
    if (broken_.ok()) {
      // The exchange completed at the transport level; result may still be
      // a structured server error, which is the caller's to interpret.
      NoteTransportSuccess();
      return result;
    }
    last = result.status();
    NoteTransportFailure();
  }
  if (last.ok()) {
    // Every attempt was consumed by the breaker gate.
    return Status::Unavailable("circuit breaker open to " + host_ + ":" +
                               std::to_string(port_));
  }
  return last;
}

Result<PingReply> WarehouseClient::Ping() {
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp, Call(Verb::kPing, {}));
  BinaryReader reader(resp.body());
  PingReply reply;
  SAMPWH_RETURN_IF_ERROR(reader.GetString(&reply.banner));
  SAMPWH_RETURN_IF_ERROR(reader.GetFixed64(&reply.seed));
  SAMPWH_RETURN_IF_ERROR(reader.GetFixed64(&reply.merge_fingerprint));
  return reply;
}

Result<ServerStatsSnapshot> WarehouseClient::ServerStats() {
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp, Call(Verb::kServerStats, {}));
  BinaryReader reader(resp.body());
  ServerStatsSnapshot stats;
  SAMPWH_RETURN_IF_ERROR(GetServerStats(&reader, &stats));
  return stats;
}

Status WarehouseClient::Shutdown() {
  return Call(Verb::kShutdown, {}).status();
}

Status WarehouseClient::CreateTenant(const std::string& tenant,
                                     const TenantQuota& quota) {
  BinaryWriter body;
  body.PutString(tenant);
  PutTenantQuota(&body, quota);
  return Call(Verb::kCreateTenant, body.Release()).status();
}

Status WarehouseClient::SetTenantQuota(const std::string& tenant,
                                       const TenantQuota& quota) {
  BinaryWriter body;
  body.PutString(tenant);
  PutTenantQuota(&body, quota);
  return Call(Verb::kSetTenantQuota, body.Release()).status();
}

Result<TenantStats> WarehouseClient::GetTenantStats(
    const std::string& tenant) {
  BinaryWriter body;
  body.PutString(tenant);
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp,
                          Call(Verb::kTenantStats, body.Release()));
  BinaryReader reader(resp.body());
  TenantStats stats;
  SAMPWH_RETURN_IF_ERROR(GetTenantQuota(&reader, &stats.quota));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&stats.usage.bytes));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&stats.usage.partitions));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&stats.usage.datasets));
  return stats;
}

Result<std::vector<std::string>> WarehouseClient::ListTenants() {
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp, Call(Verb::kListTenants, {}));
  BinaryReader reader(resp.body());
  uint64_t n = 0;
  SAMPWH_RETURN_IF_ERROR(GetEntryCount(&reader, 1, &n));
  std::vector<std::string> names;
  names.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    SAMPWH_RETURN_IF_ERROR(reader.GetString(&name));
    names.push_back(std::move(name));
  }
  return names;
}

Status WarehouseClient::CreateDataset(const std::string& tenant,
                                      const std::string& dataset) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  return Call(Verb::kCreateDataset, body.Release()).status();
}

Status WarehouseClient::DropDataset(const std::string& tenant,
                                    const std::string& dataset) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  return Call(Verb::kDropDataset, body.Release()).status();
}

Result<std::vector<std::string>> WarehouseClient::ListDatasets(
    const std::string& tenant) {
  BinaryWriter body;
  body.PutString(tenant);
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp,
                          Call(Verb::kListDatasets, body.Release()));
  BinaryReader reader(resp.body());
  uint64_t n = 0;
  SAMPWH_RETURN_IF_ERROR(GetEntryCount(&reader, 1, &n));
  std::vector<std::string> names;
  names.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    SAMPWH_RETURN_IF_ERROR(reader.GetString(&name));
    names.push_back(std::move(name));
  }
  return names;
}

Result<std::vector<PartitionInfo>> WarehouseClient::ListPartitions(
    const std::string& tenant, const std::string& dataset) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp,
                          Call(Verb::kListPartitions, body.Release()));
  BinaryReader reader(resp.body());
  uint64_t n = 0;
  SAMPWH_RETURN_IF_ERROR(GetEntryCount(&reader, 6, &n));
  std::vector<PartitionInfo> parts;
  parts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PartitionInfo info;
    uint64_t phase = 0;
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&info.id));
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&info.parent_size));
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&info.sample_size));
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&phase));
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&info.min_timestamp));
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&info.max_timestamp));
    info.phase = static_cast<SamplePhase>(phase);
    parts.push_back(info);
  }
  return parts;
}

Result<PartitionId> WarehouseClient::RollIn(const std::string& tenant,
                                            const std::string& dataset,
                                            const PartitionSample& sample,
                                            uint64_t min_timestamp,
                                            uint64_t max_timestamp) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  body.PutVarint64(min_timestamp);
  body.PutVarint64(max_timestamp);
  BinaryWriter blob;
  sample.SerializeTo(&blob);
  body.PutString(blob.buffer());
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp,
                          Call(Verb::kRollIn, body.Release()));
  BinaryReader reader(resp.body());
  uint64_t id = 0;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&id));
  return id;
}

Result<PartitionId> WarehouseClient::RollInAt(const std::string& tenant,
                                              const std::string& dataset,
                                              PartitionId id,
                                              const PartitionSample& sample,
                                              uint64_t min_timestamp,
                                              uint64_t max_timestamp) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  body.PutVarint64(id);
  body.PutVarint64(min_timestamp);
  body.PutVarint64(max_timestamp);
  BinaryWriter blob;
  sample.SerializeTo(&blob);
  body.PutString(blob.buffer());
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp,
                          Call(Verb::kRollInAt, body.Release()));
  BinaryReader reader(resp.body());
  uint64_t placed = 0;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&placed));
  return placed;
}

Result<PartitionId> WarehouseClient::ReplicaRollIn(
    const std::string& tenant, const std::string& dataset, PartitionId id,
    const PartitionSample& sample, uint64_t min_timestamp,
    uint64_t max_timestamp, bool heal) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  body.PutVarint64(id);
  body.PutVarint64(min_timestamp);
  body.PutVarint64(max_timestamp);
  body.PutVarint64(heal ? kReplicaRollInFlagHeal : 0);
  BinaryWriter blob;
  sample.SerializeTo(&blob);
  body.PutString(blob.buffer());
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp,
                          Call(Verb::kReplicaRollIn, body.Release()));
  BinaryReader reader(resp.body());
  uint64_t placed = 0;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&placed));
  return placed;
}

Result<std::vector<PartitionDigest>> WarehouseClient::PartitionDigests(
    const std::string& tenant, const std::string& dataset) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp,
                          Call(Verb::kPartitionDigests, body.Release()));
  BinaryReader reader(resp.body());
  uint64_t n = 0;
  SAMPWH_RETURN_IF_ERROR(GetEntryCount(&reader, 4, &n));
  std::vector<PartitionDigest> digests;
  digests.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PartitionDigest d;
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&d.id));
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&d.digest));
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&d.min_timestamp));
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&d.max_timestamp));
    digests.push_back(d);
  }
  return digests;
}

Status WarehouseClient::RollOut(const std::string& tenant,
                                const std::string& dataset, PartitionId id) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  body.PutVarint64(id);
  return Call(Verb::kRollOut, body.Release()).status();
}

WarehouseClient::HeldAnswer* WarehouseClient::FindHeld(
    const std::string& tenant, const std::string& dataset,
    std::span<const PartitionId> ids) {
  for (HeldAnswer& held : held_) {
    if (std::ranges::equal(held.ids, ids) && held.dataset == dataset &&
        held.tenant == tenant) {
      return &held;
    }
  }
  return nullptr;
}

WarehouseClient::HeldAnswer* WarehouseClient::HeldSlot() {
  if (held_.size() < kHeldAnswers) return &held_.emplace_back();
  return &*std::min_element(held_.begin(), held_.end(),
                            [](const HeldAnswer& a, const HeldAnswer& b) {
                              return a.last_use < b.last_use;
                            });
}

Result<PartitionSample> WarehouseClient::Query(
    const std::string& tenant, const std::string& dataset,
    const std::vector<PartitionId>& ids) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  body.PutVarint64(ids.size());
  for (const PartitionId id : ids) body.PutVarint64(id);
  // The answer depends on the id set, not on the order it is named in.
  std::vector<PartitionId> sorted;
  if (!std::is_sorted(ids.begin(), ids.end())) {
    sorted = ids;
    std::sort(sorted.begin(), sorted.end());
  }
  const std::span<const PartitionId> key(sorted.empty() ? ids : sorted);
  HeldAnswer* held = FindHeld(tenant, dataset, key);
  SAMPWH_ASSIGN_OR_RETURN(
      Reply resp,
      Call(Verb::kQuery, body.Release(), held ? held->tag : AnswerTag{}));
  BinaryReader reader(resp.body());
  std::string_view blob;
  SAMPWH_RETURN_IF_ERROR(reader.GetStringView(&blob));
  AnswerTag tag;  // The zero tag: a server that tags nothing.
  if (!reader.AtEnd()) {
    SAMPWH_RETURN_IF_ERROR(GetAnswerTag(&reader, &tag));
    if (!reader.AtEnd()) {
      return Status::Corruption("bytes after the answer tag");
    }
  }
  answer_nonce_ = tag.nonce;
  if (blob.empty()) {
    // "Unchanged": no sample encodes to an empty blob.
    if (held == nullptr || tag.nonce == 0 || tag != held->tag) {
      return Status::Corruption("unchanged answer to a query holding none");
    }
    stats_.answers_unchanged++;
    held->last_use = ++held_clock_;
    if (!held->sample) {
      SAMPWH_ASSIGN_OR_RETURN(
          held->sample,
          PartitionSample::DeserializeWhole(std::string_view(held->payload)
                                                .substr(held->blob_offset,
                                                        held->blob_size)));
      std::string().swap(held->payload);
    }
    return *held->sample;
  }
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample answer,
                          PartitionSample::DeserializeWhole(blob));
  if (tag.nonce == 0) {
    if (held != nullptr) held_.erase(held_.begin() + (held - held_.data()));
    return answer;
  }
  // The tag names the dataset's version now, and one server never goes
  // back to an older one: an answer of the dataset held under another tag
  // can never be unchanged again, so it is dropped.
  for (HeldAnswer& other : held_) {
    if (other.tag.nonce != 0 && other.tag != tag && other.dataset == dataset &&
        other.tenant == tenant) {
      other.tag = AnswerTag{};
      std::string().swap(other.payload);
      other.sample.reset();
    }
  }
  if (held == nullptr) {
    // A key's first ask remembers the key, not the answer: a reply buffer
    // that is freed now is the one the next reply reuses while it is
    // still in cache, so a query asked once costs what it did untagged.
    held = HeldSlot();
    held->tenant = tenant;
    held->dataset = dataset;
    held->ids.assign(key.begin(), key.end());
    held->tag = AnswerTag{};
    std::string().swap(held->payload);
    held->sample.reset();
    held->last_use = ++held_clock_;
    return answer;
  }
  held->tag = tag;
  held->blob_offset = blob.data() - resp.payload.data();
  held->blob_size = blob.size();
  held->payload = std::move(resp.payload);
  held->sample.reset();
  held->last_use = ++held_clock_;
  return answer;
}

Result<IngestAck> WarehouseClient::IngestCall(Verb verb,
                                              std::string_view body) {
  SAMPWH_ASSIGN_OR_RETURN(const Reply resp, Call(verb, body));
  BinaryReader reader(resp.body());
  IngestAck ack;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ack.next_sequence));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ack.partitions_rolled_in));
  return ack;
}

Result<IngestAck> WarehouseClient::IngestOpen(const std::string& tenant,
                                              const std::string& dataset) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  return IngestCall(Verb::kIngestOpen, body.Release());
}

Result<IngestAck> WarehouseClient::IngestAppend(
    const std::string& tenant, const std::string& dataset, uint64_t sequence,
    const std::vector<Value>& values, uint64_t timestamp) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  body.PutVarint64(sequence);
  body.PutVarint64(timestamp);
  PutValueBlock(&body, values);
  return IngestCall(Verb::kIngestAppendBlock, body.Release());
}

Result<IngestAck> WarehouseClient::IngestFlush(const std::string& tenant,
                                               const std::string& dataset) {
  BinaryWriter body;
  PutScope(&body, tenant, dataset);
  return IngestCall(Verb::kIngestFlush, body.Release());
}

}  // namespace sampwh
