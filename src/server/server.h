// WarehouseServer: the network daemon in front of a Warehouse. Speaks the
// CRC-framed binary protocol of server/wire.h over TCP (loopback or any
// interface), one thread per connection, exposing ingest / roll-in / query
// / admin verbs with per-tenant namespacing and quota enforcement
// (server/tenant.h).
//
// Robustness contract: a malformed frame — oversized length, CRC mismatch,
// bad magic, truncated stream, a peer that trickles bytes slower than the
// read timeout — yields a structured error response where framing still
// permits one, and then the connection is dropped. A peer idle between
// frames past the read timeout is closed without a frame. Unknown verbs and
// malformed bodies answer a structured error and keep the connection. The
// server never crashes on hostile input and counts every outcome
// (ServerStatsSnapshot) so tests can assert the taxonomy.
//
// Streaming ingest: kIngestOpen creates (or resumes, after a restart, from
// the persisted checkpoint chain) a StreamIngestor session per dataset and
// acks with the replay watermark; kIngestAppendBlock applies
// sequence-addressed batches with exactly-once semantics over
// at-least-once delivery. A durable checkpoint is forced before the open
// is acked, and each partition close writes its own, so a client that
// re-drives its stream from the acked watermark after a server crash
// produces samples bit-identical to an uninterrupted run. Every checkpoint
// is written on the connection thread that caused it; a session runs no
// thread of its own.

#ifndef SAMPWH_SERVER_SERVER_H_
#define SAMPWH_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/server/tenant.h"
#include "src/util/deadline.h"
#include "src/server/wire.h"
#include "src/warehouse/stream_ingestor.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {

struct ServerOptions {
  /// Interface to bind. Tests and single-host sharding use loopback.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port — read it back via port(). All
  /// in-repo tests use 0 so parallel ctest never races on a fixed port.
  uint16_t port = 0;
  /// Per-frame payload bound; larger declared lengths are rejected before
  /// any allocation.
  uint32_t max_frame_bytes = kWireDefaultMaxFrameBytes;
  /// Per-recv timeout. A peer that stays silent between frames this long
  /// is closed without a frame and counts as no error; one that trickles a
  /// frame slower than this (the slow-loris shape) is answered an error
  /// frame and dropped. 0 disables.
  int read_timeout_millis = 30'000;
  /// Honor the kShutdown admin verb (the serve tool enables it so an
  /// orchestrator can stop the daemon over the wire).
  bool allow_remote_shutdown = true;
  /// Admission control: maximum simultaneously served connections. A
  /// connection beyond the cap is answered a structured kResourceExhausted
  /// frame and closed BEFORE a thread is spawned — overload sheds load
  /// with an explicit, machine-readable refusal, never a silent FIN or a
  /// hang. 0 disables the cap.
  uint32_t max_connections = 0;

  /// The embedded warehouse. Its seed and merge options must match every
  /// other node's and the coordinator's: every merge node draws its RNG
  /// from node identity, which is what makes a pushed-down shard subtree
  /// bit-identical to the same node computed anywhere else.
  /// merge_memo_bytes is only a cache size (0 runs without the memo).
  WarehouseOptions warehouse;

  /// File-backed store directory; empty runs on an in-memory store. With a
  /// directory, the catalog is kept at "<directory>/MANIFEST" and its log
  /// at "<directory>/MANIFEST.log", and startup restores the previous state
  /// through RestoreWithRecovery. The snapshot is written before the log's
  /// first record, so a store with a catalog always has a MANIFEST.
  std::string store_directory;

  /// Streaming-ingest sessions: elements per closed partition (count
  /// partitioner) and where each session places its checkpoint records.
  uint64_t ingest_partition_elements = 64 * 1024;
  CheckpointPolicy ingest_checkpoints;

  /// Tenants pre-created at startup (name -> quota); the admin verbs can
  /// add more at runtime.
  std::map<std::string, TenantQuota> bootstrap_tenants;
};

class WarehouseServer {
 public:
  /// Opens the store (restoring a prior manifest when present), binds and
  /// starts serving. The returned server is running; Stop() (or
  /// destruction) shuts it down and joins every thread.
  static Result<std::unique_ptr<WarehouseServer>> Start(ServerOptions options);

  ~WarehouseServer();

  WarehouseServer(const WarehouseServer&) = delete;
  WarehouseServer& operator=(const WarehouseServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Graceful shutdown: stops accepting, unblocks and joins every
  /// connection, checkpoints every ingest session (a restart resumes
  /// them). Idempotent.
  void Stop();

  /// Asynchronous shutdown signal: stops accepting new connections and
  /// marks the server stopping. Safe from a connection thread (the
  /// kShutdown verb uses it); the owner still calls Stop() to join.
  void RequestStop();

  /// True once RequestStop()/Stop() was called (or a kShutdown verb was
  /// honored). The serve tool polls this to know when to tear down.
  bool stop_requested() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// True once Stop() completed.
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Enters drain mode: every NEW connection is answered a structured
  /// kUnavailable("server draining") frame and closed, while in-flight
  /// connections keep being served — a streaming ingest in progress
  /// finishes exactly-once. Idempotent; the owner still calls Stop().
  void BeginDrain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Blocks until every in-flight connection has finished or
  /// `deadline_millis` passed (0 = no bound). True when the server drained
  /// clean. Callers typically BeginDrain(), WaitDrained(bound), Stop().
  bool WaitDrained(uint64_t deadline_millis);

  /// The live counters, with num_datasets read from the warehouse now.
  ServerStatsSnapshot stats() const;

  /// The embedded warehouse; test-only (bit-identity assertions).
  Warehouse* warehouse_for_testing() { return warehouse_.get(); }
  /// The tenant catalog; test-only.
  TenantCatalog* tenants_for_testing() { return &tenants_; }

 private:
  struct IngestSession {
    std::mutex mu;
    std::unique_ptr<StreamIngestor> ingestor;
    /// rolled_in() prefix already charged against the tenant's quota.
    size_t charged = 0;
  };

  WarehouseServer(ServerOptions options, std::unique_ptr<Warehouse> warehouse);

  Status Listen();
  void AcceptLoop();
  /// Joins and closes every finished connection slot.
  void ReapConnections();
  /// Refuses `fd` with a structured `reason` frame: response + FIN now, a
  /// deferred close after a short grace so the peer reliably reads the
  /// refusal before any RST could discard it. The fd joins `shed`.
  void ShedConnection(int fd, const Status& reason,
                      std::vector<std::pair<int, SteadyTime>>* shed);
  void ServeConnection(int fd);
  /// Dispatches one request payload; returns the sealed response frame.
  /// Sets *shutdown when a kShutdown verb was honored.
  ResponseFrame HandleRequest(std::string_view payload, bool* shutdown);

  // Verb handlers append their body to `resp` on success.
  Status HandlePing(BinaryReader& req, BinaryWriter& resp);
  Status HandleServerStats(BinaryReader& req, BinaryWriter& resp);
  Status HandleCreateTenant(BinaryReader& req);
  Status HandleSetTenantQuota(BinaryReader& req);
  Status HandleTenantStats(BinaryReader& req, BinaryWriter& resp);
  Status HandleListTenants(BinaryWriter& resp);
  Status HandleCreateDataset(BinaryReader& req);
  Status HandleDropDataset(BinaryReader& req);
  Status HandleListDatasets(BinaryReader& req, BinaryWriter& resp);
  Status HandleListPartitions(BinaryReader& req, BinaryWriter& resp);
  Status HandleRollIn(BinaryReader& req, BinaryWriter& resp, bool explicit_id);
  Status HandleReplicaRollIn(BinaryReader& req, BinaryWriter& resp);
  Status HandleRollOut(BinaryReader& req);
  /// With `held` (the request opted in to tags) sets `*tag` to the
  /// answer's tag, and writes no sample when `*held` equals it.
  Status HandleQuery(BinaryReader& req, const std::optional<AnswerTag>& held,
                     BinaryWriter& resp, std::optional<AnswerTag>* tag);
  Status HandlePartitionDigests(BinaryReader& req, BinaryWriter& resp);
  Status HandleIngestOpen(BinaryReader& req, BinaryWriter& resp);
  Status HandleIngestAppend(BinaryReader& req, BinaryWriter& resp);
  Status HandleIngestFlush(BinaryReader& req, BinaryWriter& resp);

  /// Reads "tenant, dataset" from a request body and resolves the internal
  /// key, requiring the tenant to exist.
  Status ReadScope(BinaryReader& req, std::string* tenant, DatasetId* key);
  /// Charges quota for roll-ins the session performed since last
  /// reconciliation (streaming closes happen inside StreamIngestor, outside
  /// the verb handler). Looks up each new partition's stored footprint.
  void ReconcileSessionCharges(const std::string& tenant, const DatasetId& key,
                               IngestSession* session);
  /// The session's pre-append quota gate: rejects further streamed elements
  /// once the tenant's usage has reached a quota.
  Status CheckStreamQuota(const std::string& tenant);

  ServerOptions options_;
  /// Random per server process, never 0: the first half of every answer
  /// tag, so a restarted server never matches a tag an earlier one issued.
  const uint64_t boot_nonce_;
  std::unique_ptr<Warehouse> warehouse_;
  TenantCatalog tenants_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};
  std::once_flag stop_once_;

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conns_mu_;
  std::list<Connection> conns_;

  std::mutex sessions_mu_;
  std::map<DatasetId, std::shared_ptr<IngestSession>> sessions_;

  /// Connections currently being served (spawned, not yet finished); the
  /// admission cap and WaitDrained() read it.
  std::atomic<uint32_t> active_connections_{0};

  /// Live counters, bumped with BumpCounter from every thread.
  ServerStatsSnapshot counters_;
};

}  // namespace sampwh

#endif  // SAMPWH_SERVER_SERVER_H_
