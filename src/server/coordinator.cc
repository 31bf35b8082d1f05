#include "src/server/coordinator.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/util/shard_router.h"

namespace sampwh {

namespace {

/// Errors that mean "this node is unreachable" (as opposed to a structured
/// answer the node computed): transport failures and the breaker's
/// fail-fast refusal.
bool IsNodeDown(const Status& st) {
  return st.IsIOError() || st.IsUnavailable() || st.IsDeadlineExceeded();
}

/// Applies a per-query deadline to every node client for the duration of a
/// query, restoring the previous deadlines after.
class ScopedClientDeadlines {
 public:
  ScopedClientDeadlines(
      std::vector<std::unique_ptr<WarehouseClient>>* clients, uint64_t millis)
      : clients_(clients) {
    if (millis == 0) return;
    previous_.reserve(clients_->size());
    for (auto& client : *clients_) {
      previous_.push_back(client->deadline_millis());
      client->set_deadline_millis(millis);
    }
  }
  ~ScopedClientDeadlines() {
    for (size_t i = 0; i < previous_.size(); ++i) {
      (*clients_)[i]->set_deadline_millis(previous_[i]);
    }
  }

 private:
  std::vector<std::unique_ptr<WarehouseClient>>* clients_;
  std::vector<uint64_t> previous_;
};

}  // namespace

ShardCoordinator::ShardCoordinator(CoordinatorOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<ShardCoordinator>> ShardCoordinator::Connect(
    const std::vector<ShardNodeAddress>& nodes, CoordinatorOptions options) {
  if (nodes.empty()) {
    return Status::InvalidArgument("coordinator needs at least one node");
  }
  std::unique_ptr<ShardCoordinator> coord(
      new ShardCoordinator(std::move(options)));
  coord->nodes_ = nodes;
  for (size_t k = 0; k < nodes.size(); ++k) {
    const ShardNodeAddress& node = nodes[k];
    if (coord->options_.tolerate_unreachable) {
      // Lazy client: a node down right now connects on first use; until
      // then its breaker fails calls fast and the degraded query path
      // routes around it. Node() checks its contract on first use.
      coord->clients_.push_back(WarehouseClient::Open(
          node.host, node.port, coord->options_.client));
      coord->contract_.emplace_back();
      coord->checked_.emplace_back();
      continue;
    }
    SAMPWH_ASSIGN_OR_RETURN(
        std::unique_ptr<WarehouseClient> client,
        WarehouseClient::Connect(node.host, node.port,
                                 coord->options_.client));
    SAMPWH_ASSIGN_OR_RETURN(const PingReply pong, client->Ping());
    SAMPWH_RETURN_IF_ERROR(coord->CheckContract(k, pong));
    coord->checked_.push_back({0, client->stats().reconnects});
    coord->clients_.push_back(std::move(client));
    coord->contract_.emplace_back(Status::OK());
  }
  return coord;
}

Status ShardCoordinator::CheckContract(size_t node,
                                       const PingReply& pong) const {
  // The merge tree is exact across nodes only when every node derives the
  // same node RNGs and runs the same merges.
  const std::string name = "node " + nodes_[node].host + ":" +
                           std::to_string(nodes_[node].port);
  if (pong.seed != options_.seed) {
    return Status::FailedPrecondition(
        name + " runs warehouse seed " + std::to_string(pong.seed) +
        ", the coordinator " + std::to_string(options_.seed));
  }
  if (pong.merge_fingerprint != MergeOptionsFingerprint(options_.merge)) {
    return Status::FailedPrecondition(
        name + " merges under options other than the coordinator's");
  }
  return Status::OK();
}

Result<WarehouseClient*> ShardCoordinator::Node(size_t node) {
  WarehouseClient* client = clients_[node].get();
  if (!contract_[node].has_value()) {
    // Opened lazily: the first answered ping settles the contract. A node
    // that does not answer stays unchecked and fails this use.
    SAMPWH_ASSIGN_OR_RETURN(const PingReply pong, client->Ping());
    contract_[node] = CheckContract(node, pong);
    checked_[node] = {0, client->stats().reconnects};
  }
  SAMPWH_RETURN_IF_ERROR(*contract_[node]);
  return client;
}

Status ShardCoordinator::CheckAnswerSource(size_t node) {
  WarehouseClient* const client = clients_[node].get();
  CheckedProcess& checked = checked_[node];
  const uint64_t nonce = client->answer_nonce();
  if (nonce == checked.nonce) return Status::OK();
  const uint64_t connection = client->stats().reconnects;
  if (checked.nonce == 0 && connection == checked.connection) {
    checked.nonce = nonce;
    return Status::OK();
  }
  // Another process answered. The ping must reach that same process: a
  // reconnect on the way means it is gone too, and its answer is unused.
  SAMPWH_ASSIGN_OR_RETURN(const PingReply pong, client->Ping());
  if (client->stats().reconnects != connection) {
    return Status::Unavailable("node " + nodes_[node].host + ":" +
                               std::to_string(nodes_[node].port) +
                               " restarted while it was checked");
  }
  contract_[node] = CheckContract(node, pong);
  checked = {nonce, connection};
  return *contract_[node];
}

size_t ShardCoordinator::ShardOf(const std::string& tenant,
                                 const std::string& dataset,
                                 PartitionId id) const {
  const ShardRouter router(tenant + "." + dataset, clients_.size());
  return router.ShardFor(id);
}

size_t ShardCoordinator::replication_factor() const {
  const size_t r = options_.replication_factor == 0
                       ? 1
                       : static_cast<size_t>(options_.replication_factor);
  return std::min(r, clients_.size());
}

std::vector<size_t> ShardCoordinator::OwnersOf(size_t primary) const {
  const size_t r = replication_factor();
  std::vector<size_t> owners;
  owners.reserve(r);
  for (size_t k = 0; k < r; ++k) {
    owners.push_back((primary + k) % clients_.size());
  }
  return owners;
}

Status ShardCoordinator::CreateTenant(const std::string& tenant,
                                      const TenantQuota& quota) {
  for (size_t node = 0; node < clients_.size(); ++node) {
    SAMPWH_ASSIGN_OR_RETURN(WarehouseClient* const client, Node(node));
    SAMPWH_RETURN_IF_ERROR(client->CreateTenant(tenant, quota));
  }
  return Status::OK();
}

Status ShardCoordinator::CreateDataset(const std::string& tenant,
                                       const std::string& dataset) {
  for (size_t node = 0; node < clients_.size(); ++node) {
    SAMPWH_ASSIGN_OR_RETURN(WarehouseClient* const client, Node(node));
    SAMPWH_RETURN_IF_ERROR(client->CreateDataset(tenant, dataset));
  }
  return Status::OK();
}

Status ShardCoordinator::DropDataset(const std::string& tenant,
                                     const std::string& dataset) {
  for (size_t node = 0; node < clients_.size(); ++node) {
    SAMPWH_ASSIGN_OR_RETURN(WarehouseClient* const client, Node(node));
    SAMPWH_RETURN_IF_ERROR(client->DropDataset(tenant, dataset));
  }
  {
    SAMPWH_ASSIGN_OR_RETURN(const DatasetId key,
                            MakeTenantDatasetKey(tenant, dataset));
    next_id_.erase(key);
  }
  return Status::OK();
}

Result<std::vector<PartitionId>> ShardCoordinator::ListAllPartitions(
    const std::string& tenant, const std::string& dataset) {
  return ListPartitionsDegraded(tenant, dataset, /*missing_shards=*/nullptr);
}

Result<std::vector<PartitionId>> ShardCoordinator::ListPartitionsDegraded(
    const std::string& tenant, const std::string& dataset,
    std::vector<size_t>* missing_shards) {
  std::vector<PartitionId> ids;
  std::vector<size_t> unreachable;
  Status down_failure = Status::OK();
  for (size_t shard = 0; shard < clients_.size(); ++shard) {
    const Result<WarehouseClient*> client = Node(shard);
    const Result<std::vector<PartitionInfo>> parts =
        client.ok() ? client.value()->ListPartitions(tenant, dataset)
                    : Result<std::vector<PartitionInfo>>(client.status());
    if (!parts.ok()) {
      // A node refused by the contract check lists nothing, like a down one.
      if (!client.ok() || IsNodeDown(parts.status())) {
        unreachable.push_back(shard);
        if (down_failure.ok()) down_failure = parts.status();
        continue;
      }
      return parts.status();
    }
    for (const PartitionInfo& info : parts.value()) ids.push_back(info.id);
  }
  // The union over the reachable nodes is the COMPLETE inventory as long
  // as every owner set keeps a reachable member — replication covers node
  // loss at listing time exactly as it does mid-merge. Only when a full
  // owner set is unreachable can ids be invisible: strict listing then
  // fails, degraded listing reports the missing nodes and carries on.
  for (size_t primary = 0; primary < clients_.size(); ++primary) {
    bool all_down = true;
    for (const size_t owner : OwnersOf(primary)) {
      if (std::find(unreachable.begin(), unreachable.end(), owner) ==
          unreachable.end()) {
        all_down = false;
        break;
      }
    }
    if (all_down) {
      if (missing_shards == nullptr) return down_failure;
      break;
    }
  }
  if (missing_shards != nullptr) {
    missing_shards->insert(missing_shards->end(), unreachable.begin(),
                           unreachable.end());
  }
  std::sort(ids.begin(), ids.end());
  // With replication every id is listed by each reachable owner; the union
  // must collapse to one entry per id.
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Result<PartitionId> ShardCoordinator::RollIn(const std::string& tenant,
                                             const std::string& dataset,
                                             const PartitionSample& sample,
                                             uint64_t min_timestamp,
                                             uint64_t max_timestamp) {
  SAMPWH_ASSIGN_OR_RETURN(const DatasetId key,
                          MakeTenantDatasetKey(tenant, dataset));
  auto it = next_id_.find(key);
  if (it == next_id_.end()) {
    // Seed the global allocator ahead of whatever the nodes restored.
    SAMPWH_ASSIGN_OR_RETURN(const std::vector<PartitionId> existing,
                            ListAllPartitions(tenant, dataset));
    const PartitionId next = existing.empty() ? 0 : existing.back() + 1;
    it = next_id_.emplace(key, next).first;
  }
  const PartitionId id = it->second;
  // The id is consumed even when the write fails: ids are not required to
  // be dense, and retrying a DIFFERENT id keeps a down primary from
  // wedging every later write behind the one id it owns.
  it->second = id + 1;
  const std::vector<size_t> owners = OwnersOf(ShardOf(tenant, dataset, id));
  // The primary is the single quota-admission point: its RollInAt enforces
  // the tenant's quotas, and a refusal fails the whole write before any
  // replica copy exists (charge-once semantics).
  SAMPWH_ASSIGN_OR_RETURN(WarehouseClient* const primary, Node(owners[0]));
  SAMPWH_ASSIGN_OR_RETURN(const PartitionId placed,
                          primary->RollInAt(tenant, dataset, id, sample,
                                            min_timestamp, max_timestamp));
  size_t acks = 1;
  Status replica_failure = Status::OK();
  for (size_t k = 1; k < owners.size(); ++k) {
    const Result<WarehouseClient*> replica = Node(owners[k]);
    const Status st =
        replica.ok() ? replica.value()
                           ->ReplicaRollIn(tenant, dataset, id, sample,
                                           min_timestamp, max_timestamp)
                           .status()
                     : replica.status();
    if (st.ok()) {
      ++acks;
    } else if (replica_failure.ok()) {
      replica_failure = st;
    }
  }
  const size_t quorum =
      options_.write_quorum == 0
          ? owners.size()
          : std::min<size_t>(options_.write_quorum, owners.size());
  if (acks < quorum) {
    // Best-effort rollback of the copies that did land, so a re-driven
    // write can reuse the id. A copy that survives a failed rollback is
    // harmless: the retry's ReplicaRollIn is digest-idempotent, and an
    // abandoned id is completed-or-removed by the next scrub round.
    for (const size_t owner : owners) {
      const Result<WarehouseClient*> client = Node(owner);
      if (client.ok()) (void)client.value()->RollOut(tenant, dataset, id);
    }
    return Status::Unavailable(
        "write quorum not met: " + std::to_string(acks) + " of " +
        std::to_string(quorum) + " owner acks (" +
        replica_failure.ToString() + ")");
  }
  return placed;
}

Status ShardCoordinator::RollOut(const std::string& tenant,
                                 const std::string& dataset, PartitionId id) {
  // Every owner drops its copy. NotFound is fine (a replica that never got
  // the copy, or a quarantined file already moved aside).
  Status first_failure = Status::OK();
  for (const size_t owner : OwnersOf(ShardOf(tenant, dataset, id))) {
    const Result<WarehouseClient*> client = Node(owner);
    const Status st = client.ok()
                          ? client.value()->RollOut(tenant, dataset, id)
                          : client.status();
    if (!st.ok() && !st.IsNotFound() && first_failure.ok()) {
      first_failure = st;
    }
  }
  return first_failure;
}

Result<PartitionSample> ShardCoordinator::Query(const std::string& tenant,
                                                const std::string& dataset,
                                                std::vector<PartitionId> ids) {
  SAMPWH_ASSIGN_OR_RETURN(
      ShardQueryResult result,
      QueryWithOptions(tenant, dataset, std::move(ids), QueryOptions{}));
  return std::move(result.sample);
}

Result<ShardQueryResult> ShardCoordinator::QueryWithOptions(
    const std::string& tenant, const std::string& dataset,
    std::vector<PartitionId> ids, const QueryOptions& query_options) {
  SAMPWH_ASSIGN_OR_RETURN(const DatasetId key,
                          MakeTenantDatasetKey(tenant, dataset));
  const ScopedClientDeadlines deadlines(&clients_,
                                        query_options.deadline_millis);
  const bool all_partitions = ids.empty();
  ShardQueryResult result;
  std::set<size_t> down;

  if (all_partitions) {
    std::vector<size_t> missing;
    SAMPWH_ASSIGN_OR_RETURN(
        ids, ListPartitionsDegraded(
                 tenant, dataset,
                 query_options.allow_partial ? &missing : nullptr));
    down.insert(missing.begin(), missing.end());
  }
  if (ids.empty() && down.empty()) {
    return Status::InvalidArgument("no partitions to merge");
  }
  // Canonical node identity, exactly as the warehouse sorts before building
  // the tree; a repeated explicit id is rejected before any remote call.
  SAMPWH_RETURN_IF_ERROR(CanonicalMergeIds(&ids));
  const uint64_t fingerprint = MergeOptionsFingerprint(options_.merge);

  // An id is servable while ANY of its owners is reachable — replication
  // factor R tolerates R-1 losses without dropping a single id.
  const auto all_owners_down = [&](size_t primary) {
    for (const size_t owner : OwnersOf(primary)) {
      if (down.count(owner) == 0) return false;
    }
    return true;
  };

  // Degraded restart loop: the merge tree's shape (splits, node RNGs) is a
  // pure function of the id set, so DROPPING ids mid-merge cannot be
  // patched into the partially-built tree — the query restarts over the
  // surviving ids, which is exactly the tree a single node holding only
  // those ids would build. Mere node loss does NOT restart: a span whose
  // owner dies mid-merge is re-driven on the next owner inside MergeTree
  // and the bytes are identical. The loop only turns when a span's entire
  // owner set is gone; each turn removes at least one primary's ids, so it
  // is bounded by the node count.
  while (true) {
    std::vector<PartitionId> live_ids;
    std::vector<size_t> primaries;
    std::vector<PartitionId> dropped_ids;
    live_ids.reserve(ids.size());
    primaries.reserve(ids.size());
    for (const PartitionId id : ids) {
      const size_t primary = ShardOf(tenant, dataset, id);
      if (all_owners_down(primary)) {
        dropped_ids.push_back(id);
        continue;
      }
      live_ids.push_back(id);
      primaries.push_back(primary);
    }
    if (live_ids.empty()) {
      return Status::Unavailable(
          "no node holding requested partitions is reachable (" +
          std::to_string(down.size()) + " of " +
          std::to_string(clients_.size()) + " nodes down)");
    }

    size_t failed_primary = clients_.size();
    Result<PartitionSample> merged =
        MergeTree(tenant, dataset, key, live_ids, primaries, fingerprint,
                  &down, &failed_primary);
    if (merged.ok()) {
      result.sample = std::move(merged).value();
      // Partial means ids are actually absent from the answer: dropped
      // because their whole owner set is down, or (all-partitions only)
      // potentially invisible because a full owner set was already
      // unreachable at listing time. Surviving a node loss via a replica
      // is NOT partial — the answer is the complete, exact one.
      bool inventory_unknowable = false;
      if (all_partitions) {
        for (size_t p = 0; p < clients_.size(); ++p) {
          if (all_owners_down(p)) inventory_unknowable = true;
        }
      }
      result.partial = !dropped_ids.empty() || inventory_unknowable;
      if (result.partial) {
        result.missing_shards.assign(down.begin(), down.end());
        if (!all_partitions) result.missing_ids = std::move(dropped_ids);
        counters_.partial_queries_served++;
      }
      return result;
    }
    if (!query_options.allow_partial || !IsNodeDown(merged.status()) ||
        failed_primary >= clients_.size()) {
      return merged.status();
    }
    // The span under failed_primary exhausted every owner; mark the whole
    // owner set down so the next round drops exactly those ids.
    for (const size_t owner : OwnersOf(failed_primary)) down.insert(owner);
  }
}

Result<ScrubReport> ShardCoordinator::ScrubDataset(const std::string& tenant,
                                                   const std::string& dataset) {
  ScrubReport report;
  // Phase 1: every reachable node lists the content digest of each
  // readable copy it holds. A corrupt copy is quarantined by the scan
  // itself (the stored frame's CRC fails) and simply absent from the
  // listing — from here on, "corrupt" and "missing" are one case.
  std::vector<std::map<PartitionId, PartitionDigest>> listings(
      clients_.size());
  std::vector<bool> reachable(clients_.size(), false);
  size_t reachable_count = 0;
  for (size_t node = 0; node < clients_.size(); ++node) {
    const Result<WarehouseClient*> client = Node(node);
    if (!client.ok()) continue;  // down or refused: skip this round
    Result<std::vector<PartitionDigest>> digests =
        client.value()->PartitionDigests(tenant, dataset);
    if (!digests.ok()) {
      if (IsNodeDown(digests.status())) continue;  // skip this round
      return digests.status();
    }
    reachable[node] = true;
    ++reachable_count;
    for (const PartitionDigest& d : digests.value()) {
      listings[node][d.id] = d;
    }
  }
  if (reachable_count == 0) {
    return Status::Unavailable("no node reachable for scrub");
  }

  // Phase 2: per partition, elect the authoritative digest and repair
  // every reachable owner that disagrees or lacks a copy.
  std::set<PartitionId> all_ids;
  for (const auto& listing : listings) {
    for (const auto& [id, _] : listing) all_ids.insert(id);
  }
  for (const PartitionId id : all_ids) {
    ++report.partitions_scanned;
    const std::vector<size_t> owners = OwnersOf(ShardOf(tenant, dataset, id));

    // Majority digest among readable copies wins; a tie resolves to the
    // copy on the lowest-index owner (deterministic, and in the common
    // two-replica split it sides with the primary's bytes).
    std::map<uint64_t, size_t> votes;
    uint64_t authoritative = 0;
    size_t best_votes = 0;
    size_t source_owner = clients_.size();
    for (const size_t owner : owners) {
      if (!reachable[owner]) continue;
      const auto it = listings[owner].find(id);
      if (it == listings[owner].end()) continue;
      const size_t n = ++votes[it->second.digest];
      if (n > best_votes) {
        best_votes = n;
        authoritative = it->second.digest;
      }
    }
    if (best_votes == 0) {
      // Listed somewhere, but no reachable OWNER holds a readable copy —
      // nothing to heal from.
      report.unhealable += 1;
      continue;
    }
    for (const size_t owner : owners) {
      if (!reachable[owner]) continue;
      const auto it = listings[owner].find(id);
      if (it != listings[owner].end() && it->second.digest == authoritative &&
          source_owner == clients_.size()) {
        source_owner = owner;
      }
    }

    // Tally the damage on reachable owners.
    std::vector<size_t> broken;
    for (const size_t owner : owners) {
      if (!reachable[owner]) continue;
      const auto it = listings[owner].find(id);
      if (it == listings[owner].end()) {
        report.replicas_missing += 1;
        broken.push_back(owner);
      } else if (it->second.digest != authoritative) {
        report.digest_mismatches += 1;
        broken.push_back(owner);
      }
    }
    if (broken.empty()) continue;

    // Fetch the healthy sample once: a single-id query is leaf
    // pass-through, the stored sample itself.
    const PartitionDigest& source = listings[source_owner].at(id);
    Result<PartitionSample> healthy =
        clients_[source_owner]->Query(tenant, dataset, {id});
    if (healthy.ok()) {
      if (Status source = CheckAnswerSource(source_owner); !source.ok()) {
        healthy = std::move(source);
      }
    }
    if (!healthy.ok()) {
      report.unhealable += broken.size();
      continue;
    }
    for (const size_t owner : broken) {
      const Status healed =
          clients_[owner]
              ->ReplicaRollIn(tenant, dataset, id, healthy.value(),
                              source.min_timestamp, source.max_timestamp,
                              /*heal=*/true)
              .status();
      if (healed.ok()) {
        report.healed += 1;
        counters_.partitions_healed++;
      } else {
        report.unhealable += 1;
      }
    }
  }
  counters_.scrub_rounds++;
  return report;
}

std::vector<bool> ShardCoordinator::CheckHealth() {
  std::vector<bool> healthy;
  healthy.reserve(clients_.size());
  for (size_t node = 0; node < clients_.size(); ++node) {
    const Result<WarehouseClient*> client = Node(node);
    healthy.push_back(client.ok() && client.value()->Ping().ok());
  }
  return healthy;
}

CoordinatorStats ShardCoordinator::stats() const {
  CoordinatorStats s = counters_;
  for (const auto& client : clients_) {
    SumCounters<ClientStatsSnapshot>(&s, client->stats(), kClientCounters);
  }
  return s;
}

Result<PartitionSample> ShardCoordinator::QuerySpanWithFailover(
    const std::string& tenant, const std::string& dataset,
    std::span<const size_t> candidates, std::span<const PartitionId> ids,
    std::set<size_t>* down) {
  // Every candidate holds every id of the span, and the merge subtree a
  // node builds depends only on the sorted id set — so the bytes are
  // identical no matter which candidate serves it. Try candidates in
  // order; the first serves healthy traffic, the rest absorb its failures.
  const std::vector<PartitionId> span(ids.begin(), ids.end());
  Status down_failure = Status::OK();
  Status structured_failure = Status::OK();
  for (const size_t owner : candidates) {
    if (down->count(owner) != 0) continue;
    if (clients_[owner]->breaker_open()) {
      // Known-down peer: skip to the next candidate without burning a
      // call, exactly like the breaker's fail-fast contract.
      down->insert(owner);
      if (down_failure.ok()) {
        down_failure = Status::Unavailable("circuit breaker open to node " +
                                           std::to_string(owner));
      }
      continue;
    }
    const Result<WarehouseClient*> client = Node(owner);
    const bool failover = client.ok() && owner != candidates[0];
    if (failover) {
      client.value()->set_request_flags(kRequestFlagFailoverRead);
      counters_.failover_reads++;
    }
    Result<PartitionSample> remote =
        client.ok() ? client.value()->Query(tenant, dataset, span)
                    : Result<PartitionSample>(client.status());
    if (failover) client.value()->set_request_flags(0);
    if (remote.ok()) {
      if (Status source = CheckAnswerSource(owner); !source.ok()) {
        remote = std::move(source);
      }
    }
    if (remote.ok()) return remote;
    if (IsNodeDown(remote.status())) {
      down->insert(owner);
      if (down_failure.ok()) down_failure = remote.status();
    } else {
      // A structured answer (e.g. NotFound from a replica that never got a
      // copy, or a node refused by the contract check): the node cannot
      // serve this span — try the next candidate, and surface this error
      // only if none can.
      structured_failure = remote.status();
    }
  }
  // Prefer reporting unreachability: it is what the degraded restart logic
  // keys on, and a structured error from one stale replica should not mask
  // the fact that the span's owners are gone.
  if (!down_failure.ok()) return down_failure;
  if (!structured_failure.ok()) return structured_failure;
  return Status::Unavailable("no reachable owner for span (first candidate " +
                             std::to_string(candidates[0]) + ")");
}

Result<PartitionSample> ShardCoordinator::MergeTree(
    const std::string& tenant, const std::string& dataset,
    const DatasetId& key, std::span<const PartitionId> ids,
    std::span<const size_t> primaries, uint64_t fingerprint,
    std::set<size_t>* down, size_t* failed_primary) {
  // Maximal push-down: a span whose ids share an owner is one remote query
  // to a common owner — that node's walk builds the identical subtree
  // (same sorted id set, same MergeTreeSplit, same identity-derived node
  // RNGs). A span no node wholly owns, or one every common owner failed,
  // is split, and its halves are joined here with the node step any
  // warehouse with the same seed runs. A query one node answers whole is
  // handed back without a copy.
  const size_t n = clients_.size();
  const size_t r = replication_factor();
  std::shared_ptr<PartitionSample> whole;
  const auto source = [&](std::span<const PartitionId> span,
                          size_t offset) -> Result<MergeTreeSample> {
    const std::span<const size_t> span_primaries =
        primaries.subspan(offset, span.size());
    // The owners every id shares, in the ring order of the first id's.
    std::vector<size_t> candidates = OwnersOf(span_primaries[0]);
    std::erase_if(candidates, [&](size_t node) {
      return std::any_of(
          span_primaries.begin(), span_primaries.end(),
          [&](size_t primary) { return (node + n - primary) % n >= r; });
    });
    if (candidates.empty()) return MergeTreeSample();
    Result<PartitionSample> remote =
        QuerySpanWithFailover(tenant, dataset, candidates, span, down);
    if (!remote.ok()) {
      // Its halves may still be served, each by a common owner of its own.
      if (span.size() > 1) return MergeTreeSample();
      if (IsNodeDown(remote.status())) *failed_primary = span_primaries[0];
      return remote.status();
    }
    auto answer = std::make_shared<PartitionSample>(std::move(remote).value());
    if (span.size() == ids.size()) whole = answer;
    return MergeTreeSample(std::move(answer));
  };
  SAMPWH_ASSIGN_OR_RETURN(
      const MergeTreeSample root,
      WalkMergeTree(MergeTreeKey{options_.seed, key, fingerprint},
                    options_.merge, ids, source));
  if (whole != nullptr) return std::move(*whole);
  return *root;
}

}  // namespace sampwh
