#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/util/deadline.h"

#include "src/warehouse/partitioner.h"
#include "src/warehouse/sample_store.h"

namespace sampwh {

namespace {

/// Provisional partition-id space for charge-before-allocate roll-ins.
/// Real ids are allocated densely from 0; the top quarter of the id space
/// can never collide with one.
constexpr PartitionId kProvisionalIdBase = 1ull << 62;
std::atomic<uint64_t> g_provisional_nonce{0};

/// A nonzero 64-bit value no earlier server process is likely to have
/// drawn: OS entropy mixed with the clock.
uint64_t DrawBootNonce() {
  std::random_device entropy;
  uint64_t nonce = 0;
  while (nonce == 0) {
    nonce = (uint64_t{entropy()} << 32 | entropy()) ^
            static_cast<uint64_t>(
                std::chrono::steady_clock::now().time_since_epoch().count());
  }
  return nonce;
}

}  // namespace

WarehouseServer::WarehouseServer(ServerOptions options,
                                 std::unique_ptr<Warehouse> warehouse)
    : options_(std::move(options)),
      boot_nonce_(DrawBootNonce()),
      warehouse_(std::move(warehouse)) {}

WarehouseServer::~WarehouseServer() { Stop(); }

Result<std::unique_ptr<WarehouseServer>> WarehouseServer::Start(
    ServerOptions options) {
  std::unique_ptr<Warehouse> warehouse;
  if (options.store_directory.empty()) {
    warehouse = std::make_unique<Warehouse>(options.warehouse);
  } else {
    SAMPWH_ASSIGN_OR_RETURN(std::unique_ptr<FileSampleStore> store,
                            FileSampleStore::Open(options.store_directory));
    const std::string manifest = options.store_directory + "/MANIFEST";
    options.warehouse.manifest_path = manifest;
    if (::access(manifest.c_str(), F_OK) == 0) {
      SAMPWH_ASSIGN_OR_RETURN(
          Warehouse::RestoredWarehouse restored,
          Warehouse::RestoreWithRecovery(options.warehouse, std::move(store),
                                         manifest));
      warehouse = std::move(restored.warehouse);
    } else {
      warehouse =
          std::make_unique<Warehouse>(options.warehouse, std::move(store));
    }
  }

  std::unique_ptr<WarehouseServer> server(
      new WarehouseServer(std::move(options), std::move(warehouse)));

  for (const auto& [name, quota] : server->options_.bootstrap_tenants) {
    SAMPWH_RETURN_IF_ERROR(server->tenants_.CreateTenant(name, quota));
  }

  // Rebuild tenant usage from restored ground truth: every tenant-keyed
  // dataset that survived recovery is re-charged (forced — pre-existing
  // state is fact, not a request that quotas could reject).
  for (const DatasetId& key : server->warehouse_->ListDatasets()) {
    std::string tenant, dataset;
    if (!SplitTenantDatasetKey(key, &tenant, &dataset).ok()) continue;
    if (!server->tenants_.HasTenant(tenant)) continue;
    (void)server->tenants_.ChargeDataset(tenant, /*force=*/true);
    const auto parts = server->warehouse_->ListPartitions(key);
    if (!parts.ok()) continue;
    for (const PartitionInfo& info : parts.value()) {
      const auto sample = server->warehouse_->GetSample(key, info.id);
      const uint64_t bytes = sample.ok() ? sample.value().footprint_bytes() : 0;
      (void)server->tenants_.ChargePartition(tenant, key, info.id, bytes,
                                             /*force=*/true);
    }
  }

  SAMPWH_RETURN_IF_ERROR(server->Listen());
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Status WarehouseServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError(std::string("bind ") + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) < 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  // Read back the bound port — the ephemeral-port contract every in-repo
  // test relies on (bind port 0, never race on a fixed number).
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void WarehouseServer::ReapConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  // Join finished connections so a long-lived server does not accumulate
  // joinable threads.
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      ::close(it->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void WarehouseServer::ShedConnection(
    int fd, const Status& reason,
    std::vector<std::pair<int, SteadyTime>>* shed) {
  BumpCounter(counters_.connections_shed);
  BinaryWriter out;
  BeginResponse(&out, reason);
  (void)WriteFrame(fd, out.Release());
  // FIN after the refusal so the peer sees an orderly end of stream; the
  // close itself is deferred past a short grace window — an immediate
  // close could turn into an RST that discards the buffered response on
  // loopback before the peer reads it.
  ::shutdown(fd, SHUT_WR);
  shed->emplace_back(fd, DeadlineAfterMillis(250));
}

void WarehouseServer::AcceptLoop() {
  std::vector<std::pair<int, SteadyTime>> shed;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, 50);

    // Housekeeping runs every tick, accept traffic or not: grace-expired
    // shed fds close, finished connection threads join.
    const SteadyTime now = SteadyNow();
    for (auto it = shed.begin(); it != shed.end();) {
      if (now >= it->second) {
        ::close(it->first);
        it = shed.erase(it);
      } else {
        ++it;
      }
    }
    ReapConnections();

    if (stopping_.load(std::memory_order_acquire)) break;
    if (ready <= 0 || !(pfd.revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion (fd table or kernel memory) is transient:
        // in-flight connections will finish and free their fds. Back off
        // briefly — giving the reap pass above a chance to close finished
        // slots — and keep serving instead of abandoning the listener.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listener is gone; nothing to serve anymore
    }
    BumpCounter(counters_.connections_accepted);

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.read_timeout_millis > 0) {
      timeval tv{};
      tv.tv_sec = options_.read_timeout_millis / 1000;
      tv.tv_usec = (options_.read_timeout_millis % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }

    if (draining_.load(std::memory_order_acquire)) {
      ShedConnection(fd, Status::Unavailable("server draining"), &shed);
      continue;
    }
    if (options_.max_connections > 0 &&
        active_connections_.load(std::memory_order_acquire) >=
            options_.max_connections) {
      ShedConnection(
          fd,
          Status::ResourceExhausted(
              "connection limit (" +
              std::to_string(options_.max_connections) + ") reached"),
          &shed);
      continue;
    }

    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace_back();
    Connection& conn = conns_.back();
    conn.fd = fd;
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    conn.thread = std::thread([this, &conn] {
      ServeConnection(conn.fd);
      // Send the FIN now — the peer must observe the drop immediately, not
      // when the accept loop next reaps this slot (which closes the fd).
      ::shutdown(conn.fd, SHUT_RDWR);
      active_connections_.fetch_sub(1, std::memory_order_acq_rel);
      conn.done.store(true, std::memory_order_release);
    });
  }
  for (const auto& [fd, deadline] : shed) ::close(fd);
}

void WarehouseServer::ServeConnection(int fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::string payload;
    const Status read = ReadFrame(fd, options_.max_frame_bytes, &payload);
    if (!read.ok()) {
      // An orderly EOF, or an idle timeout, between frames: close without
      // a frame. An error frame here would sit unread in the socket until
      // the client's next request, and read as its reply.
      if (read.IsNotFound() || read.IsDeadlineExceeded()) return;
      // Framing is lost (oversized length, CRC mismatch, mid-frame tear,
      // or a slow-loris timeout): answer a best-effort structured error,
      // then drop the connection.
      BumpCounter(counters_.protocol_errors);
      BumpCounter(counters_.connections_dropped);
      BinaryWriter out;
      BeginResponse(&out, read);
      (void)WriteFrame(fd, out.Release());
      return;
    }
    bool shutdown = false;
    const ResponseFrame response = HandleRequest(payload, &shutdown);
    if (!WriteAll(fd, response.bytes()).ok()) {
      BumpCounter(counters_.connections_dropped);
      return;
    }
    if (shutdown) {
      RequestStop();
      return;
    }
  }
}

ResponseFrame WarehouseServer::HandleRequest(std::string_view payload,
                                             bool* shutdown) {
  BumpCounter(counters_.requests_served);
  BinaryReader req(payload);
  uint32_t verb = 0;
  RequestHeader header;
  Status st = ParseRequestHead(&req, &verb, &header);
  // The propagated deadline covers the whole request from here: handlers
  // and the merge recursion below them poll CheckThreadDeadline(), so a
  // request that cannot finish in time fails fast with a structured
  // kDeadlineExceeded instead of burning a core on an answer nobody waits
  // for.
  std::optional<ScopedThreadDeadline> deadline;
  if (st.ok() && header.deadline_millis > 0) {
    deadline.emplace(DeadlineAfterMillis(header.deadline_millis));
  }
  if (st.ok() && (header.flags & kRequestFlagFailoverRead) != 0) {
    // A coordinator re-drove this request onto us after another owner of
    // the same ids failed; count it so failover traffic shows in stats.
    BumpCounter(counters_.failover_reads);
  }
  ResponseFrame response;
  BinaryWriter& body = response.body();
  // A query answer is one length-prefixed sample blob: HandleQuery writes
  // only the sample, and the seal puts its length in front, and the tag
  // after it when the request opted in.
  bool blob_body = false;
  std::optional<AnswerTag> tag;
  if (!st.ok()) {
    BumpCounter(counters_.protocol_errors);
  } else if (!IsKnownVerb(verb)) {
    st = Status::InvalidArgument("unknown verb " + std::to_string(verb));
  } else {
    switch (static_cast<Verb>(verb)) {
      case Verb::kPing:
        st = HandlePing(req, body);
        break;
      case Verb::kServerStats:
        st = HandleServerStats(req, body);
        break;
      case Verb::kShutdown:
        if (options_.allow_remote_shutdown) {
          *shutdown = true;
          st = Status::OK();
        } else {
          st = Status::FailedPrecondition("remote shutdown disabled");
        }
        break;
      case Verb::kCreateTenant:
        st = HandleCreateTenant(req);
        break;
      case Verb::kSetTenantQuota:
        st = HandleSetTenantQuota(req);
        break;
      case Verb::kTenantStats:
        st = HandleTenantStats(req, body);
        break;
      case Verb::kListTenants:
        st = HandleListTenants(body);
        break;
      case Verb::kCreateDataset:
        st = HandleCreateDataset(req);
        break;
      case Verb::kDropDataset:
        st = HandleDropDataset(req);
        break;
      case Verb::kListDatasets:
        st = HandleListDatasets(req, body);
        break;
      case Verb::kListPartitions:
        st = HandleListPartitions(req, body);
        break;
      case Verb::kRollIn:
        st = HandleRollIn(req, body, /*explicit_id=*/false);
        break;
      case Verb::kRollInAt:
        st = HandleRollIn(req, body, /*explicit_id=*/true);
        break;
      case Verb::kRollOut:
        st = HandleRollOut(req);
        break;
      case Verb::kReplicaRollIn:
        st = HandleReplicaRollIn(req, body);
        break;
      case Verb::kQuery:
        st = HandleQuery(req, header.held, body, &tag);
        blob_body = true;
        break;
      case Verb::kPartitionDigests:
        st = HandlePartitionDigests(req, body);
        break;
      case Verb::kIngestOpen:
        st = HandleIngestOpen(req, body);
        break;
      case Verb::kIngestFlush:
        st = HandleIngestFlush(req, body);
        break;
      case Verb::kIngestAppendBlock:
        st = HandleIngestAppend(req, body);
        break;
    }
    if (st.ok() && !req.AtEnd()) {
      st = Status::InvalidArgument("trailing bytes after request body");
    }
  }

  if (st.ok()) {
    BinaryWriter trailer;
    if (tag) PutAnswerTag(&trailer, *tag);
    response.SealOk(blob_body, trailer.buffer());
  } else {
    response.SealError(st);
    BumpCounter(counters_.error_responses);
    if (st.IsDeadlineExceeded()) {
      BumpCounter(counters_.deadlines_exceeded);
    }
  }
  return response;
}

Status WarehouseServer::HandlePing(BinaryReader& req, BinaryWriter& resp) {
  (void)req;
  resp.PutString("sampwh.warehouse/1");
  resp.PutFixed64(warehouse_->options().seed);
  resp.PutFixed64(MergeOptionsFingerprint(warehouse_->options().merge));
  return Status::OK();
}

Status WarehouseServer::HandleServerStats(BinaryReader& req,
                                          BinaryWriter& resp) {
  (void)req;
  PutServerStats(&resp, stats());
  return Status::OK();
}

Status WarehouseServer::HandleCreateTenant(BinaryReader& req) {
  std::string tenant;
  SAMPWH_RETURN_IF_ERROR(req.GetString(&tenant));
  TenantQuota quota;
  SAMPWH_RETURN_IF_ERROR(GetTenantQuota(&req, &quota));
  return tenants_.CreateTenant(tenant, quota);
}

Status WarehouseServer::HandleSetTenantQuota(BinaryReader& req) {
  std::string tenant;
  SAMPWH_RETURN_IF_ERROR(req.GetString(&tenant));
  TenantQuota quota;
  SAMPWH_RETURN_IF_ERROR(GetTenantQuota(&req, &quota));
  return tenants_.SetQuota(tenant, quota);
}

Status WarehouseServer::HandleTenantStats(BinaryReader& req,
                                          BinaryWriter& resp) {
  std::string tenant;
  SAMPWH_RETURN_IF_ERROR(req.GetString(&tenant));
  SAMPWH_ASSIGN_OR_RETURN(const TenantQuota quota, tenants_.GetQuota(tenant));
  SAMPWH_ASSIGN_OR_RETURN(const TenantUsage usage, tenants_.GetUsage(tenant));
  PutTenantQuota(&resp, quota);
  resp.PutVarint64(usage.bytes);
  resp.PutVarint64(usage.partitions);
  resp.PutVarint64(usage.datasets);
  return Status::OK();
}

Status WarehouseServer::HandleListTenants(BinaryWriter& resp) {
  const std::vector<std::string> names = tenants_.ListTenants();
  resp.PutVarint64(names.size());
  for (const std::string& name : names) resp.PutString(name);
  return Status::OK();
}

Status WarehouseServer::ReadScope(BinaryReader& req, std::string* tenant,
                                  DatasetId* key) {
  std::string dataset;
  SAMPWH_RETURN_IF_ERROR(req.GetString(tenant));
  SAMPWH_RETURN_IF_ERROR(req.GetString(&dataset));
  SAMPWH_ASSIGN_OR_RETURN(*key, MakeTenantDatasetKey(*tenant, dataset));
  if (!tenants_.HasTenant(*tenant)) {
    return Status::NotFound("no tenant: " + *tenant);
  }
  return Status::OK();
}

Status WarehouseServer::HandleCreateDataset(BinaryReader& req) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  SAMPWH_RETURN_IF_ERROR(tenants_.ChargeDataset(tenant));
  const Status st = warehouse_->CreateDataset(key);
  if (!st.ok()) tenants_.CreditDataset(tenant, key);
  return st;
}

Status WarehouseServer::HandleDropDataset(BinaryReader& req) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(key);
  }
  SAMPWH_RETURN_IF_ERROR(warehouse_->DropDataset(key));
  tenants_.CreditDataset(tenant, key);
  return Status::OK();
}

Status WarehouseServer::HandleListDatasets(BinaryReader& req,
                                           BinaryWriter& resp) {
  std::string tenant;
  SAMPWH_RETURN_IF_ERROR(req.GetString(&tenant));
  if (!tenants_.HasTenant(tenant)) {
    return Status::NotFound("no tenant: " + tenant);
  }
  std::vector<std::string> names;
  for (const DatasetId& key : warehouse_->ListDatasets()) {
    std::string key_tenant, dataset;
    if (!SplitTenantDatasetKey(key, &key_tenant, &dataset).ok()) continue;
    if (key_tenant == tenant) names.push_back(std::move(dataset));
  }
  resp.PutVarint64(names.size());
  for (const std::string& name : names) resp.PutString(name);
  return Status::OK();
}

Status WarehouseServer::HandleListPartitions(BinaryReader& req,
                                             BinaryWriter& resp) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  SAMPWH_ASSIGN_OR_RETURN(const std::vector<PartitionInfo> parts,
                          warehouse_->ListPartitions(key));
  resp.PutVarint64(parts.size());
  for (const PartitionInfo& info : parts) {
    resp.PutVarint64(info.id);
    resp.PutVarint64(info.parent_size);
    resp.PutVarint64(info.sample_size);
    resp.PutVarint64(static_cast<uint64_t>(info.phase));
    resp.PutVarint64(info.min_timestamp);
    resp.PutVarint64(info.max_timestamp);
  }
  return Status::OK();
}

Status WarehouseServer::HandleRollIn(BinaryReader& req, BinaryWriter& resp,
                                     bool explicit_id) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  uint64_t explicit_partition = 0;
  if (explicit_id) {
    SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&explicit_partition));
  }
  uint64_t min_ts = 0, max_ts = 0;
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&min_ts));
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&max_ts));
  std::string_view blob;
  SAMPWH_RETURN_IF_ERROR(req.GetStringView(&blob));
  SAMPWH_ASSIGN_OR_RETURN(const PartitionSample sample,
                          PartitionSample::DeserializeWhole(blob));
  const uint64_t bytes = sample.footprint_bytes();

  // Charge-before-mutate: quota exhaustion rejects here, before the
  // warehouse sees anything — never a partial roll-in.
  const PartitionId charge_id =
      explicit_id ? explicit_partition
                  : kProvisionalIdBase +
                        g_provisional_nonce.fetch_add(
                            1, std::memory_order_relaxed);
  SAMPWH_RETURN_IF_ERROR(
      tenants_.ChargePartition(tenant, key, charge_id, bytes));

  const Result<PartitionId> rolled =
      explicit_id
          ? warehouse_->RollInAt(key, explicit_partition, sample, min_ts,
                                 max_ts)
          : warehouse_->RollIn(key, sample, min_ts, max_ts);
  if (!rolled.ok()) {
    tenants_.CreditPartition(tenant, key, charge_id);
    return rolled.status();
  }
  if (!explicit_id) {
    tenants_.RenamePartitionCharge(tenant, key, charge_id, rolled.value());
  }
  resp.PutVarint64(rolled.value());
  return Status::OK();
}

Status WarehouseServer::HandleReplicaRollIn(BinaryReader& req,
                                            BinaryWriter& resp) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  uint64_t id = 0, min_ts = 0, max_ts = 0, rflags = 0;
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&id));
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&min_ts));
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&max_ts));
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&rflags));
  std::string_view blob;
  SAMPWH_RETURN_IF_ERROR(req.GetStringView(&blob));
  SAMPWH_ASSIGN_OR_RETURN(const PartitionSample sample,
                          PartitionSample::DeserializeWhole(blob));
  const bool heal = (rflags & kReplicaRollInFlagHeal) != 0;
  // The wire blob IS the serialized payload the store frames, so its
  // digest matches SampleStore::ContentDigest of a stored copy.
  const uint64_t incoming = ContentDigest(blob);

  // Idempotent apply: an identical existing copy acks as success, so the
  // client retries replica writes freely after a transport error.
  const Result<uint64_t> existing = warehouse_->PartitionContentDigest(key, id);
  if (existing.ok() && existing.value() == incoming) {
    BumpCounter(counters_.replica_writes);
    resp.PutVarint64(id);
    return Status::OK();
  }
  if (existing.ok()) {
    // A live copy with different content under the same id: divergence,
    // repaired in place with the incoming bytes.
    BumpCounter(counters_.digest_mismatches);
  }

  // Charge-once semantics: quota ADMISSION was decided once, at the
  // primary. The replica records usage as ground truth (forced, replace-
  // aware), so each node's usage equals its stored footprint and roll-out
  // credits stay exact — zero quota drift across heals and retries.
  SAMPWH_RETURN_IF_ERROR(tenants_.ChargePartition(
      tenant, key, id, sample.footprint_bytes(), /*force=*/true));
  Result<PartitionId> rolled =
      warehouse_->RollInAt(key, id, sample, min_ts, max_ts);
  if (!rolled.ok() && rolled.status().IsAlreadyExists()) {
    // The id is occupied by a divergent or unreadable copy: roll it out —
    // the catalog entry clears even when the damaged file was already
    // quarantined aside and the store answers NotFound — then place the
    // healthy bytes.
    const Status out = warehouse_->RollOut(key, id);
    if (!out.ok() && !out.IsNotFound()) {
      tenants_.CreditPartition(tenant, key, id);
      return out;
    }
    rolled = warehouse_->RollInAt(key, id, sample, min_ts, max_ts);
  }
  if (!rolled.ok()) {
    tenants_.CreditPartition(tenant, key, id);
    return rolled.status();
  }
  BumpCounter(counters_.replica_writes);
  if (heal) BumpCounter(counters_.partitions_healed);
  resp.PutVarint64(id);
  return Status::OK();
}

Status WarehouseServer::HandleRollOut(BinaryReader& req) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  uint64_t id = 0;
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&id));
  SAMPWH_RETURN_IF_ERROR(warehouse_->RollOut(key, id));
  tenants_.CreditPartition(tenant, key, id);
  return Status::OK();
}

Status WarehouseServer::HandleQuery(BinaryReader& req,
                                    const std::optional<AnswerTag>& held,
                                    BinaryWriter& resp,
                                    std::optional<AnswerTag>* tag) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  uint64_t n = 0;
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&n));
  if (n > req.remaining()) {
    return Status::InvalidArgument("partition-id count exceeds request body");
  }
  std::vector<PartitionId> ids;
  ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&id));
    ids.push_back(id);
  }
  // Fail fast when the client's deadline already passed before the merge
  // starts; the memoized merge recursion polls the same deadline per node.
  SAMPWH_RETURN_IF_ERROR(CheckThreadDeadline());
  // The root's encoded answer: on a memo hit the node's stored bytes, shared
  // and not re-encoded. One copy into the response frame; HandleRequest
  // seals the body as one length-prefixed blob.
  //
  // A tagged answer's version is read before the answer is resolved: a
  // mutation racing the resolve can only leave the tag older than the
  // bytes, so the next request that names it misses and gets the newer
  // answer. A held tag equal to the current one means no mutation since
  // the held answer's version was read, so its bytes are the ones this
  // request would resolve: none are resolved or sent.
  uint64_t version = 0;
  const uint64_t held_version =
      held && held->nonce == boot_nonce_ ? held->version : 0;
  SAMPWH_ASSIGN_OR_RETURN(
      const std::shared_ptr<const std::string> answer,
      warehouse_->MergedSampleBytes(key, ids, held ? &version : nullptr,
                                    held_version));
  if (held) *tag = AnswerTag{boot_nonce_, version};
  if (answer == nullptr) return Status::OK();
  // Room for the tag the seal appends, so that it never moves the frame.
  resp.Reserve(answer->size() + kMaxAnswerTagBytes);
  resp.PutRaw(answer->data(), answer->size());
  return Status::OK();
}

Status WarehouseServer::HandlePartitionDigests(BinaryReader& req,
                                               BinaryWriter& resp) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  SAMPWH_ASSIGN_OR_RETURN(const std::vector<PartitionInfo> parts,
                          warehouse_->ListPartitions(key));
  BumpCounter(counters_.scrub_rounds);
  // Only READABLE copies are listed: a partition whose stored bytes fail
  // frame verification is quarantined by the store on this very read
  // and omitted, so the scrubber sees it as a missing replica to
  // re-replicate rather than a healthy digest to trust.
  BinaryWriter entries;
  uint64_t listed = 0;
  for (const PartitionInfo& info : parts) {
    SAMPWH_RETURN_IF_ERROR(CheckThreadDeadline());
    const Result<uint64_t> digest =
        warehouse_->PartitionContentDigest(key, info.id);
    if (!digest.ok()) {
      if (digest.status().IsCorruption() || digest.status().IsNotFound()) {
        continue;
      }
      return digest.status();
    }
    entries.PutVarint64(info.id);
    entries.PutVarint64(digest.value());
    entries.PutVarint64(info.min_timestamp);
    entries.PutVarint64(info.max_timestamp);
    ++listed;
  }
  resp.PutVarint64(listed);
  const std::string e = entries.Release();
  resp.PutRaw(e.data(), e.size());
  return Status::OK();
}

Status WarehouseServer::HandleIngestOpen(BinaryReader& req,
                                         BinaryWriter& resp) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  if (!warehouse_->HasDataset(key)) {
    return Status::NotFound("no dataset: " + key);
  }

  std::shared_ptr<IngestSession> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      auto fresh = std::make_shared<IngestSession>();
      Result<std::unique_ptr<StreamIngestor>> resumed = StreamIngestor::Resume(
          warehouse_.get(), key,
          MakeCountPartitioner(options_.ingest_partition_elements),
          options_.ingest_checkpoints);
      if (resumed.ok()) {
        fresh->ingestor = std::move(resumed).value();
      } else if (resumed.status().IsNotFound()) {
        fresh->ingestor = std::make_unique<StreamIngestor>(
            warehouse_.get(), key,
            MakeCountPartitioner(options_.ingest_partition_elements));
        fresh->ingestor->EnableCheckpoints(options_.ingest_checkpoints);
        // Force the session's initial state (above all its private RNG)
        // durable BEFORE the open is acked: a client that re-drives its
        // stream after our crash then replays against the exact RNG an
        // uninterrupted run would have used — bit-identical samples.
        SAMPWH_RETURN_IF_ERROR(fresh->ingestor->Checkpoint());
      } else {
        return resumed.status();
      }
      fresh->charged = fresh->ingestor->rolled_in().size();
      it = sessions_.emplace(key, std::move(fresh)).first;
    }
    session = it->second;
  }

  std::lock_guard<std::mutex> lock(session->mu);
  resp.PutVarint64(session->ingestor->next_sequence());
  resp.PutVarint64(session->ingestor->rolled_in().size());
  return Status::OK();
}

Status WarehouseServer::HandleIngestAppend(BinaryReader& req,
                                           BinaryWriter& resp) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  uint64_t sequence = 0, timestamp = 0;
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&sequence));
  SAMPWH_RETURN_IF_ERROR(req.GetVarint64(&timestamp));
  std::vector<Value> values;
  SAMPWH_RETURN_IF_ERROR(GetValueBlock(&req, &values));

  std::shared_ptr<IngestSession> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      return Status::FailedPrecondition("no open ingest session for " + key);
    }
    session = it->second;
  }

  std::lock_guard<std::mutex> lock(session->mu);
  SAMPWH_RETURN_IF_ERROR(CheckStreamQuota(tenant));
  SAMPWH_RETURN_IF_ERROR(
      session->ingestor->AppendBatchAt(sequence, values, timestamp));
  ReconcileSessionCharges(tenant, key, session.get());
  resp.PutVarint64(session->ingestor->next_sequence());
  resp.PutVarint64(session->ingestor->rolled_in().size());
  return Status::OK();
}

Status WarehouseServer::HandleIngestFlush(BinaryReader& req,
                                          BinaryWriter& resp) {
  std::string tenant;
  DatasetId key;
  SAMPWH_RETURN_IF_ERROR(ReadScope(req, &tenant, &key));
  std::shared_ptr<IngestSession> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      return Status::FailedPrecondition("no open ingest session for " + key);
    }
    session = it->second;
  }
  std::lock_guard<std::mutex> lock(session->mu);
  SAMPWH_RETURN_IF_ERROR(session->ingestor->Flush());
  SAMPWH_RETURN_IF_ERROR(session->ingestor->Checkpoint());
  ReconcileSessionCharges(tenant, key, session.get());
  resp.PutVarint64(session->ingestor->next_sequence());
  resp.PutVarint64(session->ingestor->rolled_in().size());
  return Status::OK();
}

void WarehouseServer::ReconcileSessionCharges(const std::string& tenant,
                                              const DatasetId& key,
                                              IngestSession* session) {
  const std::vector<PartitionId>& rolled = session->ingestor->rolled_in();
  for (size_t i = session->charged; i < rolled.size(); ++i) {
    const auto sample = warehouse_->GetSample(key, rolled[i]);
    const uint64_t bytes = sample.ok() ? sample.value().footprint_bytes() : 0;
    // Forced: the elements were accepted before the partition closed, so
    // usage must record the close even when it lands past a quota; the
    // pre-append gate rejects further elements from then on.
    (void)tenants_.ChargePartition(tenant, key, rolled[i], bytes,
                                   /*force=*/true);
  }
  session->charged = rolled.size();
}

Status WarehouseServer::CheckStreamQuota(const std::string& tenant) {
  SAMPWH_ASSIGN_OR_RETURN(const TenantQuota quota, tenants_.GetQuota(tenant));
  SAMPWH_ASSIGN_OR_RETURN(const TenantUsage usage, tenants_.GetUsage(tenant));
  if (quota.max_bytes != 0 && usage.bytes >= quota.max_bytes) {
    return Status::ResourceExhausted(
        "tenant " + tenant + " byte quota (" +
        std::to_string(quota.max_bytes) + ") exhausted at " +
        std::to_string(usage.bytes) + " bytes");
  }
  if (quota.max_partitions != 0 && usage.partitions >= quota.max_partitions) {
    return Status::ResourceExhausted(
        "tenant " + tenant + " partition quota (" +
        std::to_string(quota.max_partitions) + ") exhausted");
  }
  return Status::OK();
}

ServerStatsSnapshot WarehouseServer::stats() const {
  ServerStatsSnapshot s = LoadCounters(counters_, kServerCounters);
  s.num_datasets = warehouse_->ListDatasets().size();
  return s;
}

void WarehouseServer::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

bool WarehouseServer::WaitDrained(uint64_t deadline_millis) {
  const SteadyTime deadline = DeadlineAfterMillis(deadline_millis);
  while (active_connections_.load(std::memory_order_acquire) > 0) {
    if (SteadyNow() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

void WarehouseServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void WarehouseServer::Stop() {
  std::call_once(stop_once_, [this] {
    RequestStop();
    if (accept_thread_.joinable()) accept_thread_.join();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (Connection& conn : conns_) ::shutdown(conn.fd, SHUT_RDWR);
    }
    // The accept thread is joined, so nobody mutates conns_ anymore.
    for (Connection& conn : conns_) {
      if (conn.thread.joinable()) conn.thread.join();
      ::close(conn.fd);
    }
    conns_.clear();
    // Close the listen socket only now: a connection thread honoring
    // kShutdown reads listen_fd_ inside RequestStop, so the fd must stay
    // open (its number un-reusable) until every such thread is joined.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Park every ingest session durably so a restart resumes it.
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (auto& [key, session] : sessions_) {
        std::lock_guard<std::mutex> slock(session->mu);
        (void)session->ingestor->Checkpoint();
      }
    }
    stopped_.store(true, std::memory_order_release);
  });
}

}  // namespace sampwh
