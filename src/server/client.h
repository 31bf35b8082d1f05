// WarehouseClient: blocking client for the warehouse server's wire
// protocol. One TCP connection, one outstanding request at a time (the
// protocol is strict request/response); open several clients for
// concurrency.
//
// Failure handling. Connects are bounded by connect_timeout_millis (a
// black-holed address fails in bounded time, never hangs). A transport
// error poisons the connection; the next call transparently reconnects
// and — for IDEMPOTENT verbs only — retries with exponential backoff and
// seeded jitter. Queries, pings, stats and listings retry freely; the
// streaming-ingest verbs retry because the server's sequence watermark
// makes re-driven appends exactly-once; roll-ins and admin mutations are
// NEVER retried (a duplicate would be ambiguous), their error surfaces to
// the caller. A pooled connection that the server already closed, as it
// does after an idle read timeout, is noticed before a request is sent
// and reopened, for every verb. After breaker_failure_threshold
// consecutive transport failures a per-client circuit breaker opens: calls
// fail fast with kUnavailable (no connect timeout burned) until
// breaker_open_millis passes, then a half-open probe either closes it or
// re-opens it. The shard coordinator keeps one client per node, so this
// breaker is exactly a per-node breaker.
//
// Deadlines: deadline_millis (per-client default, overridable with
// set_deadline_millis) is propagated to the server in the wire header; the
// server aborts the request with kDeadlineExceeded once it passes, even
// mid-merge. 0 sends no deadline (and keeps the v1 request head on the
// wire).
//
// Held answers. Every Query opts in to answer tags (wire.h, "Held
// answers"): the client keeps the answers of its kHeldAnswers most
// recently used (tenant, dataset, sorted ids) keys with their tags, and
// names the held tag when it asks a key again. A server that finds the
// tag current sends an empty blob, and the client answers from what it
// holds, with no transfer of the answer and no decode. The first ask of a
// key remembers only the key. A later fresh answer is held as the reply
// payload it arrived in, moved and not copied, and is decoded into a held
// sample only when the server first says "unchanged". So a key asked once
// costs what it did before tags: its reply buffer is freed at once, and
// the next reply reuses it while it is still in cache. A server that sends
// no tag (an older build) leaves nothing held. A fresh tag drops every
// answer of its dataset held under another tag, since a server never
// returns to an older version. The held set costs at most kHeldAnswers
// answers, each one reply payload or its decoded sample, and in practice
// the answers of one dataset version.

#ifndef SAMPWH_SERVER_CLIENT_H_
#define SAMPWH_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/sample.h"
#include "src/server/tenant.h"
#include "src/server/wire.h"
#include "src/util/deadline.h"
#include "src/util/random.h"
#include "src/warehouse/catalog.h"

namespace sampwh {

struct ClientOptions {
  /// Bound on a frame payload in either direction: a larger response is a
  /// protocol error, a larger request is refused with kInvalidArgument
  /// before it is sent. Match it to the server's bound.
  uint32_t max_frame_bytes = kWireDefaultMaxFrameBytes;
  /// Per-recv timeout while waiting for a response; 0 waits forever.
  int read_timeout_millis = 30'000;
  /// Bound on connection establishment (non-blocking connect + poll). A
  /// black-holed peer fails with kDeadlineExceeded after this long instead
  /// of hanging for the kernel's minutes-long SYN retry budget. 0 falls
  /// back to a blocking connect.
  int connect_timeout_millis = 5'000;
  /// Transparent re-attempts after a transport failure, idempotent verbs
  /// only. 0 disables retries (every transport error surfaces).
  uint32_t max_retries = 2;
  /// Exponential backoff between retries, with seeded jitter in
  /// [backoff/2, backoff].
  uint64_t backoff_initial_millis = 10;
  uint64_t backoff_max_millis = 500;
  /// Seeds the retry jitter.
  uint64_t seed = 0;
  /// Circuit breaker: consecutive transport failures that open it, and how
  /// long it stays open before a half-open probe. threshold 0 disables.
  uint32_t breaker_failure_threshold = 3;
  uint64_t breaker_open_millis = 1'000;
  /// Default per-request deadline propagated in the wire header; 0 = none.
  uint64_t deadline_millis = 0;
};

/// Monotonic counters over the client's lifetime.
struct ClientStatsSnapshot {
  /// Re-attempts after a transport failure (not first tries).
  uint64_t retries_attempted = 0;
  /// Successful reconnects after a poisoned connection.
  uint64_t reconnects = 0;
  /// Times the circuit breaker transitioned to open.
  uint64_t breaker_open_total = 0;
  /// Transport-level failures observed (connect, send, recv, framing).
  uint64_t transport_errors = 0;
  /// Queries the server answered "unchanged", served from a held answer.
  uint64_t answers_unchanged = 0;
};

inline constexpr CounterField<ClientStatsSnapshot> kClientCounters[] = {
    {"retries attempted", &ClientStatsSnapshot::retries_attempted},
    {"reconnects", &ClientStatsSnapshot::reconnects},
    {"breaker opens", &ClientStatsSnapshot::breaker_open_total},
    {"transport errors", &ClientStatsSnapshot::transport_errors},
    {"answers unchanged", &ClientStatsSnapshot::answers_unchanged},
};

/// Watermark ack of the streaming-ingest verbs.
struct IngestAck {
  /// Replay watermark: sequence of the next element the server will apply.
  uint64_t next_sequence = 0;
  /// Partitions the session has rolled in so far.
  uint64_t partitions_rolled_in = 0;
};

/// kTenantStats response.
struct TenantStats {
  TenantQuota quota;
  TenantUsage usage;
};

/// kPing response: the server's banner, then the seed and the
/// MergeOptionsFingerprint of its warehouse. A coordinator's merge tree is
/// exact only over nodes whose two match its own (ShardCoordinator::Connect).
struct PingReply {
  std::string banner;
  uint64_t seed = 0;
  uint64_t merge_fingerprint = 0;
};

/// One readable partition copy in a kPartitionDigests listing.
struct PartitionDigest {
  PartitionId id = 0;
  /// Content digest of the stored sample payload:
  /// (CRC-32 of the serialized bytes << 32) | byte length. Two replicas
  /// holding bit-identical copies always agree; a corrupt or missing copy
  /// is omitted from the listing entirely.
  uint64_t digest = 0;
  uint64_t min_timestamp = 0;
  uint64_t max_timestamp = 0;
};

class WarehouseClient {
 public:
  static Result<std::unique_ptr<WarehouseClient>> Connect(
      const std::string& host, uint16_t port, ClientOptions options = {});

  /// Creates a client WITHOUT connecting: the first call establishes the
  /// connection (and fails like any transport error if the peer is down,
  /// feeding the breaker). For supervisors — e.g. a shard coordinator
  /// tolerating an unreachable node — that must outlive a peer's outage.
  static std::unique_ptr<WarehouseClient> Open(const std::string& host,
                                               uint16_t port,
                                               ClientOptions options = {});

  ~WarehouseClient();

  WarehouseClient(const WarehouseClient&) = delete;
  WarehouseClient& operator=(const WarehouseClient&) = delete;

  /// The raw socket; robustness tests use it to inject hostile bytes.
  int fd() const { return fd_; }

  /// Overrides the per-request deadline from ClientOptions for subsequent
  /// calls; 0 clears it.
  void set_deadline_millis(uint64_t millis) { deadline_millis_ = millis; }
  uint64_t deadline_millis() const { return deadline_millis_; }

  /// Header flag bits (kRequestFlag*) stamped on subsequent requests. The
  /// coordinator sets kRequestFlagFailoverRead around a query it re-drives
  /// onto a replica; 0 clears. Nonzero flags force the v2 request head.
  void set_request_flags(uint64_t flags) { request_flags_ = flags; }
  uint64_t request_flags() const { return request_flags_; }

  ClientStatsSnapshot stats() const { return stats_; }

  /// The boot nonce of the server process that sent the latest query
  /// answer; 0 before any, or when that answer carried no tag. A change
  /// means another server process answers at this address.
  uint64_t answer_nonce() const { return answer_nonce_; }

  /// Answers a client holds at most (see "Held answers" above).
  static constexpr size_t kHeldAnswers = 16;

  /// True while the circuit breaker refuses calls (kUnavailable fail-fast).
  bool breaker_open() const;

  // --- Admin ---------------------------------------------------------------
  Result<PingReply> Ping();
  Result<ServerStatsSnapshot> ServerStats();
  /// Asks the server to shut down (it still answers this request).
  Status Shutdown();

  Status CreateTenant(const std::string& tenant, const TenantQuota& quota);
  Status SetTenantQuota(const std::string& tenant, const TenantQuota& quota);
  Result<TenantStats> GetTenantStats(const std::string& tenant);
  Result<std::vector<std::string>> ListTenants();

  // --- Catalog -------------------------------------------------------------
  Status CreateDataset(const std::string& tenant, const std::string& dataset);
  Status DropDataset(const std::string& tenant, const std::string& dataset);
  Result<std::vector<std::string>> ListDatasets(const std::string& tenant);
  Result<std::vector<PartitionInfo>> ListPartitions(
      const std::string& tenant, const std::string& dataset);

  // --- Roll-in / roll-out / query ------------------------------------------
  Result<PartitionId> RollIn(const std::string& tenant,
                             const std::string& dataset,
                             const PartitionSample& sample,
                             uint64_t min_timestamp = 0,
                             uint64_t max_timestamp = 0);
  /// Roll-in under a caller-chosen partition id (the shard coordinator's
  /// globally allocated ids).
  Result<PartitionId> RollInAt(const std::string& tenant,
                               const std::string& dataset, PartitionId id,
                               const PartitionSample& sample,
                               uint64_t min_timestamp = 0,
                               uint64_t max_timestamp = 0);
  Status RollOut(const std::string& tenant, const std::string& dataset,
                 PartitionId id);

  // --- Replication ---------------------------------------------------------
  /// Places a replica copy of `sample` under `id`, bypassing quota
  /// admission (the primary already admitted the write; replicas charge
  /// unconditionally so usage mirrors stored footprint). Idempotent: a
  /// copy with the same content digest acks without rewriting; a divergent
  /// copy is replaced in place. `heal` marks an anti-entropy repair so the
  /// server counts it under partitions_healed.
  Result<PartitionId> ReplicaRollIn(const std::string& tenant,
                                    const std::string& dataset, PartitionId id,
                                    const PartitionSample& sample,
                                    uint64_t min_timestamp = 0,
                                    uint64_t max_timestamp = 0,
                                    bool heal = false);

  /// Content digests of every READABLE partition copy of the dataset on
  /// this node (corrupt copies are quarantined by the scan and omitted).
  /// The anti-entropy scrubber compares these across replicas.
  Result<std::vector<PartitionDigest>> PartitionDigests(
      const std::string& tenant, const std::string& dataset);

  /// Merged sample over the named partitions (empty `ids` = all). The
  /// result is bit-identical to the embedded warehouse's MergedSample,
  /// whether it arrives or is held (see "Held answers" above).
  Result<PartitionSample> Query(const std::string& tenant,
                                const std::string& dataset,
                                const std::vector<PartitionId>& ids = {});

  // --- Streaming ingest ----------------------------------------------------
  /// Opens (or resumes) the dataset's ingest session. The ack's
  /// next_sequence is the replay point: feed the source stream from there
  /// via IngestAppend — re-driving from any earlier point is safe
  /// (duplicates are acknowledged and skipped server-side).
  Result<IngestAck> IngestOpen(const std::string& tenant,
                               const std::string& dataset);
  Result<IngestAck> IngestAppend(const std::string& tenant,
                                 const std::string& dataset, uint64_t sequence,
                                 const std::vector<Value>& values,
                                 uint64_t timestamp = 0);
  /// Closes the open partition (if non-empty) and checkpoints the session.
  Result<IngestAck> IngestFlush(const std::string& tenant,
                                const std::string& dataset);

 private:
  /// A response payload as received and where its body starts in it;
  /// callers decode the body in place.
  struct Reply {
    std::string payload;
    size_t body_offset = 0;
    std::string_view body() const {
      return std::string_view(payload).substr(body_offset);
    }
  };

  /// One held key: its answer's tag and the answer itself, first as the
  /// reply it arrived in and, once the server said "unchanged", as the
  /// sample decoded from it. A key asked once holds no answer (the zero
  /// tag, no payload).
  struct HeldAnswer {
    std::string tenant;
    std::string dataset;
    std::vector<PartitionId> ids;  // sorted
    AnswerTag tag;
    /// The reply payload, and where the sample blob sits in it.
    std::string payload;
    size_t blob_offset = 0;
    size_t blob_size = 0;
    std::optional<PartitionSample> sample;
    uint64_t last_use = 0;
  };

  WarehouseClient(int fd, std::string host, uint16_t port,
                  ClientOptions options);

  /// The held answer for the key, or nullptr.
  HeldAnswer* FindHeld(const std::string& tenant, const std::string& dataset,
                       std::span<const PartitionId> ids);
  /// The slot a new key's answer takes: a free one while fewer than
  /// kHeldAnswers are held, else the least recently used.
  HeldAnswer* HeldSlot();

  /// Retry driver: encodes the request once, rejects it with
  /// InvalidArgument if it exceeds max_frame_bytes (nothing sent), then
  /// the breaker gate, then up to 1 + max_retries attempts of CallOnce for
  /// idempotent verbs (reconnecting a poisoned connection between
  /// attempts), exactly one attempt otherwise. Returns the response on an
  /// OK status, the server's structured error otherwise.
  /// `held` opts a kQuery in to a tagged answer (RequestHeader::held).
  Result<Reply> Call(Verb verb, std::string_view body,
                     std::optional<AnswerTag> held = std::nullopt);
  /// One framed request/response exchange of the encoded `request`
  /// payload on the current connection.
  Result<Reply> CallOnce(std::string_view request);
  Result<IngestAck> IngestCall(Verb verb, std::string_view body);

  /// Replaces a poisoned connection with a fresh one.
  Status Reconnect();
  void NoteTransportFailure();
  void NoteTransportSuccess();

  int fd_ = -1;
  std::string host_;
  uint16_t port_ = 0;
  ClientOptions options_;
  uint64_t deadline_millis_ = 0;
  uint64_t request_flags_ = 0;
  Pcg64 jitter_rng_;
  /// First transport error; fails every later call fast (until the retry
  /// driver reconnects).
  Status broken_ = Status::OK();

  uint32_t consecutive_failures_ = 0;
  SteadyTime breaker_open_until_ = SteadyTime::min();
  ClientStatsSnapshot stats_;

  uint64_t answer_nonce_ = 0;
  /// At most kHeldAnswers entries, in no order; last_use ranks them.
  std::vector<HeldAnswer> held_;
  uint64_t held_clock_ = 0;
};

}  // namespace sampwh

#endif  // SAMPWH_SERVER_CLIENT_H_
