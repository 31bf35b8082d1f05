// ShardCoordinator: spreads a tenant's datasets across N warehouse server
// nodes and answers merged-sample queries over the union — bit-identical
// to what a single warehouse node holding every partition would return.
//
// How exactness survives distribution: a union merges pairwise up one
// balanced binary tree over the canonically sorted partition-id set, and
// each node's RNG derives purely from the node's identity (seed, dataset
// key, id set, merge-options fingerprint); src/core/merge.h owns that tree
// and its one walker (WalkMergeTree). The split rule depends only on leaf
// count, so the subtree over any contiguous id span IS the tree a
// standalone query over exactly those ids would build. The coordinator
// walks the tree with a span source of its own: a span whose ids share an
// owner (a node holding a copy of every one of them) is pushed down as one
// explicit-id query to a common owner (the node computes it,
// bit-identically, through its own walk); a span no node wholly owns is
// split and its halves joined locally with the identical node step.
// Bit-identity requires every node to run the coordinator's seed and
// MergeOptions. Connect checks both against each node's ping reply; a node
// opened lazily under tolerate_unreachable is checked the same way on its
// first use and, if it differs, refused: it serves no span and takes no
// write. A node's merge_memo_bytes is only a cache size and may differ.
// A node is checked again when it restarts: every query answer names the
// boot nonce of the process that served it (wire.h, "Held answers"), and
// an answer from a process other than the checked one is used only after
// one ping re-runs the check. A node restarted under another seed or merge
// fingerprint is then refused, and its span fails over to another owner
// or the query fails with FailedPrecondition naming it. Writes carry no
// nonce: a write to a restarted node is re-checked only through a later
// query's answer.
//
// Partition placement: the coordinator allocates globally unique partition
// ids per dataset (keeping its allocator ahead of whatever the nodes
// restored) and routes each id through ShardRouter(dataset-key, N) — a
// stable hash-sharding — placing the sample via the kRollInAt verb.
//
// Replication (replication_factor R > 1): each id's owner set is the contiguous
// run {primary, primary+1, ..., primary+R-1} (mod N) — a pure function of the
// primary. A pushed-down subtree goes to the common owners of its ids, tried in
// the ring order of its first id's owner set, so at R = N every query is one
// remote call, and the subtree fails over wholesale through the rest of its
// common owners. Writes land on the primary via kRollInAt (the single
// quota-admission point) and on each replica via kReplicaRollIn (charged
// unconditionally — charge-once semantics: admission happened at the primary;
// forced replica charges keep every node's recorded usage equal to its stored
// footprint). A write needs `write_quorum` owner acks to succeed. Reads fail
// over inside the merge walk: a subtree whose serving owner is down,
// breaker-open or lacks a copy is re-driven on the next common owner in order
// (flagged kRequestFlagFailoverRead); a subtree of more than one id that no
// common owner can serve is split, so each half goes to common owners of its
// own. The answer stays bit-identical — the merge tree's shape and node RNGs
// depend on the id set, never on which node serves a span — as long as every
// owner's copy is identical, which digest-idempotent replica writes and
// ScrubDataset maintain. With at most R-1 nodes down every query is
// exact; only the loss of a full owner set degrades to partial (under
// allow_partial) or fails. ScrubDataset is the anti-entropy pass: it
// collects per-owner content digests (kPartitionDigests — corrupt copies
// are quarantined server-side and read as missing), elects the majority
// digest per partition (ties to the lowest-index readable owner),
// re-replicates missing or divergent copies from a healthy owner via
// heal-flagged kReplicaRollIn, and so also heals quarantined partitions
// from their surviving replicas instead of dropping them.

#ifndef SAMPWH_SERVER_COORDINATOR_H_
#define SAMPWH_SERVER_COORDINATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/core/merge.h"
#include "src/server/client.h"

namespace sampwh {

struct ShardNodeAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct CoordinatorOptions {
  /// MUST equal every node's WarehouseOptions::seed (checked by Connect).
  uint64_t seed = 0x5157313136ULL;
  /// MUST equal every node's WarehouseOptions::merge (checked by Connect).
  MergeOptions merge;
  ClientOptions client;
  /// Keep a coordinator whose nodes are (partly) unreachable at Connect
  /// time: every node gets a lazily-connecting client, whose circuit
  /// breaker fails a down node's calls fast until the node comes back, and
  /// whose seed and merge options are checked on first use. Without it,
  /// Connect fails unless every node answers a ping.
  bool tolerate_unreachable = false;
  /// Copies of every partition. 1 disables replication (the pre-existing
  /// single-copy behavior); the effective factor is min(R, node count).
  uint32_t replication_factor = 1;
  /// Owner acks a RollIn needs before it reports success; 0 requires every
  /// owner. The primary's quota-gated ack is always required (it is the
  /// admission point) and counts toward the quorum; replicas that miss the
  /// quorum window are repaired by the next ScrubDataset round.
  uint32_t write_quorum = 0;
};

/// Per-query knobs for the degraded-operation path.
struct QueryOptions {
  /// Permit answering from the surviving shards when some are unreachable.
  /// The result is then explicitly flagged partial, with the missing
  /// shards listed — and it is bit-identical to a single-node query over
  /// exactly the surviving id set (the merge tree's shape and node RNGs
  /// are pure functions of the id set).
  bool allow_partial = false;
  /// Deadline propagated to every remote call this query makes; 0 = none.
  uint64_t deadline_millis = 0;
};

/// A possibly-degraded query answer. `partial` is false on the happy path
/// (then missing_* are empty and `sample` equals the strict Query answer).
struct ShardQueryResult {
  PartitionSample sample;
  bool partial = false;
  /// Shards that did not contribute (unreachable through retries).
  std::vector<size_t> missing_shards;
  /// Requested partition ids excluded because their home shard is in
  /// missing_shards. Empty for an all-partitions query when the down
  /// shard's inventory is unknowable.
  std::vector<PartitionId> missing_ids;
};

/// Coordinator-level counters. The ClientStatsSnapshot part sums the
/// per-node clients' transport counters at snapshot time.
struct CoordinatorStats : ClientStatsSnapshot {
  uint64_t partial_queries_served = 0;
  /// Subtree queries re-driven onto a replica after an owner failed.
  uint64_t failover_reads = 0;
  /// ScrubDataset passes completed.
  uint64_t scrub_rounds = 0;
  /// Replica copies re-created or repaired by ScrubDataset.
  uint64_t partitions_healed = 0;
};

/// Outcome of one ScrubDataset anti-entropy pass.
struct ScrubReport {
  /// Distinct partition ids examined (union over every reachable owner).
  uint64_t partitions_scanned = 0;
  /// Owner slots that should hold a copy but had none readable (includes
  /// copies the digest scan quarantined as corrupt).
  uint64_t replicas_missing = 0;
  /// Readable copies whose content digest disagreed with the elected
  /// authoritative digest.
  uint64_t digest_mismatches = 0;
  /// Copies successfully re-replicated from a healthy owner, counting
  /// elected copies rewritten because they held an older encoding of the
  /// content that healed copies now carry.
  uint64_t healed = 0;
  /// Broken copies that could not be repaired (no healthy readable source
  /// among reachable owners, or the heal write itself failed).
  uint64_t unhealable = 0;
};

class ShardCoordinator {
 public:
  /// Connects one client to every node. At least one node required. Each
  /// node connected eagerly is pinged, and Connect fails with
  /// FailedPrecondition naming the first node whose warehouse seed or merge
  /// options differ from `options`. A node opened lazily
  /// (tolerate_unreachable) is checked the same way on its first use, and
  /// if it differs it is refused: every call that would use it fails with
  /// that FailedPrecondition, so it serves no span and takes no write.
  static Result<std::unique_ptr<ShardCoordinator>> Connect(
      const std::vector<ShardNodeAddress>& nodes, CoordinatorOptions options);

  size_t num_shards() const { return clients_.size(); }

  /// The shard owning partition `id` of (tenant, dataset).
  size_t ShardOf(const std::string& tenant, const std::string& dataset,
                 PartitionId id) const;

  /// Effective replication factor: min(options.replication_factor, N).
  size_t replication_factor() const;

  /// The nodes holding copies of every id whose primary is `primary`: the
  /// contiguous run {primary, ..., primary + R - 1} (mod N), primary
  /// first. A pure function of the primary; a pushed-down subtree goes to
  /// the nodes in the owner sets of all its ids.
  std::vector<size_t> OwnersOf(size_t primary) const;

  /// Fan-out admin: applied on every node (a tenant/dataset exists
  /// everywhere so any shard can receive its partitions).
  Status CreateTenant(const std::string& tenant, const TenantQuota& quota);
  Status CreateDataset(const std::string& tenant, const std::string& dataset);
  Status DropDataset(const std::string& tenant, const std::string& dataset);

  /// Rolls `sample` in under a freshly allocated global partition id: a
  /// quota-gated write on the id's primary, then a forced-charge replica
  /// copy on each further owner, succeeding once write_quorum owners
  /// acked. Returns the id.
  Result<PartitionId> RollIn(const std::string& tenant,
                             const std::string& dataset,
                             const PartitionSample& sample,
                             uint64_t min_timestamp = 0,
                             uint64_t max_timestamp = 0);

  /// Rolls out `id` from every owner.
  Status RollOut(const std::string& tenant, const std::string& dataset,
                 PartitionId id);

  /// Every partition id of (tenant, dataset) across all shards, sorted.
  Result<std::vector<PartitionId>> ListAllPartitions(
      const std::string& tenant, const std::string& dataset);

  /// Merged sample over `ids` (empty = all partitions on all shards),
  /// bit-identical to a single node holding every partition. Strict: any
  /// unreachable shard fails the query. A repeated id is InvalidArgument.
  Result<PartitionSample> Query(const std::string& tenant,
                                const std::string& dataset,
                                std::vector<PartitionId> ids = {});

  /// Query with degraded-operation knobs. With allow_partial, shards that
  /// stay unreachable through the client's retries are dropped and the
  /// merge restarts over the surviving id set (the tree's shape depends on
  /// the id set, so a mid-merge loss cannot be patched in place); the
  /// answer is flagged partial. Fails with kUnavailable when no shard
  /// survives.
  Result<ShardQueryResult> QueryWithOptions(const std::string& tenant,
                                            const std::string& dataset,
                                            std::vector<PartitionId> ids,
                                            const QueryOptions& query_options);

  /// One anti-entropy pass over (tenant, dataset): collects per-owner
  /// content digests, elects the authoritative digest per partition
  /// (majority; ties to the lowest-index readable owner), and
  /// re-replicates missing or divergent copies from a healthy owner via
  /// heal-flagged replica writes. Unreachable nodes are skipped (their
  /// copies are neither counted missing nor healable this round). Also the
  /// repair path for quarantined partitions: the corrupt copy reads as
  /// missing and is rebuilt from a surviving replica.
  Result<ScrubReport> ScrubDataset(const std::string& tenant,
                                   const std::string& dataset);

  /// Pings every node; healthy[i] is node i's reachability. Cheap for
  /// nodes whose breaker is open (no connect timeout burned). A node
  /// refused by the contract check reads unhealthy.
  std::vector<bool> CheckHealth();

  CoordinatorStats stats() const;

  /// Per-node client, for tests and the load generator.
  WarehouseClient* client(size_t shard) { return clients_[shard].get(); }

 private:
  explicit ShardCoordinator(CoordinatorOptions options);

  /// Walks the merge tree over the sorted id span: a span is pushed down
  /// whole when its ids share an owner, otherwise split and joined locally
  /// by WalkMergeTree. A pushed-down span is tried on each common owner in
  /// the ring order of its first id's owner set (skipping nodes already in
  /// `*down` or with an open breaker; re-drives are flagged failover
  /// reads) — the answer is identical from any owner, so
  /// replication-factor R survives R-1 node losses without degrading. A
  /// span of more than one id that no common owner serves is split. Owners
  /// that fail as unreachable are added to `*down`; when a single-id span
  /// exhausts every owner, `*failed_primary` names its primary so the
  /// degraded restart can drop those ids.
  Result<PartitionSample> MergeTree(const std::string& tenant,
                                    const std::string& dataset,
                                    const DatasetId& key,
                                    std::span<const PartitionId> ids,
                                    std::span<const size_t> primaries,
                                    uint64_t fingerprint,
                                    std::set<size_t>* down,
                                    size_t* failed_primary);

  /// One pushed-down span query, tried on each of `candidates` (nodes
  /// that own every id of the span) in order; the source of MergeTree.
  Result<PartitionSample> QuerySpanWithFailover(
      const std::string& tenant, const std::string& dataset,
      std::span<const size_t> candidates, std::span<const PartitionId> ids,
      std::set<size_t>* down);

  /// FailedPrecondition naming node `node` when `pong` shows a seed or
  /// merge options other than the coordinator's.
  Status CheckContract(size_t node, const PingReply& pong) const;

  /// The client of node `node`, once its contract holds. A lazily opened
  /// node is pinged on its first use: if the ping fails, its error is
  /// returned and the node stays unchecked; otherwise the check's outcome
  /// is kept, so a refused node fails every later use with the same
  /// FailedPrecondition.
  Result<WarehouseClient*> Node(size_t node);

  /// Run after node `node` answered a query, before the answer is used:
  /// OK when the answer came from the process whose contract was checked.
  /// An answer from another process (a restart) costs one ping that
  /// re-runs the check, and a failed check refuses the node as Node()
  /// does. The ping's transport error is returned as is.
  Status CheckAnswerSource(size_t node);

  /// ListAllPartitions that can skip unreachable shards, recording them in
  /// `*missing_shards` (strict when null).
  Result<std::vector<PartitionId>> ListPartitionsDegraded(
      const std::string& tenant, const std::string& dataset,
      std::vector<size_t>* missing_shards);

  CoordinatorOptions options_;
  std::vector<ShardNodeAddress> nodes_;
  std::vector<std::unique_ptr<WarehouseClient>> clients_;
  /// Per node: no value until its contract is checked, then the outcome.
  std::vector<std::optional<Status>> contract_;
  /// Per node, the process its contract check saw: the boot nonce its
  /// answers carry (0 until one names it), and the client's reconnect
  /// count at the check. No server process outlives its connection, so a
  /// first nonce seen on the connection the check used is the checked
  /// process's.
  struct CheckedProcess {
    uint64_t nonce = 0;
    uint64_t connection = 0;
  };
  std::vector<CheckedProcess> checked_;
  /// Coordinator-side global id allocator, per internal dataset key.
  std::map<DatasetId, PartitionId> next_id_;
  /// The coordinator's own counters; the client part stays zero.
  CoordinatorStats counters_;
};

}  // namespace sampwh

#endif  // SAMPWH_SERVER_COORDINATOR_H_
