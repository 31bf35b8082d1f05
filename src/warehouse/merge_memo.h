// The warehouse merge tree and its node cache.
//
// Tree. A union query over partitions {p1..pn} sorts the ids and rejects a
// repeated one (CanonicalMergeIds), then merges pairwise up a balanced tree
// (MergeTreeSplit); every interior node is a uniform sample of the union of
// a contiguous range of the sorted id set (paper §4.2, Theorem 1 — any
// binary tree shape is uniform). Each node draws from an RNG stream derived
// from its identity (NodeRng), never from query history (MergeTreeNode), so
// a node is the same bytes wherever and whenever it is computed: in a
// warehouse, on a shard serving a pushed-down subtree, or in a coordinator
// joining shard results. The warehouse and the coordinator both walk the
// tree through these functions, so its shape is decided here alone. The
// price of identity-derived randomness is that a repeated query returns the
// identical realization; a caller that wants an independent draw uses a
// different warehouse seed.
//
// Cache. MergeMemo is a sharded LRU cache of interior nodes. Repeated or
// overlapping union queries (a rolling window slides by one day but shares
// most partitions) would otherwise rebuild identical subtrees from scratch.
// A node is keyed by (dataset, canonical sorted partition-id range,
// MergeOptions fingerprint, epoch). Because a node's bytes do not depend on
// whether it was cached, the memo changes latency, never answers: a
// warehouse without one (merge_memo_bytes = 0) returns the same bytes.
// A node that has been served as a query root also keeps its SerializeTo
// bytes, charged to the same budget, so a repeated query answers with them
// instead of encoding the sample again.
//
// Invalidation. Roll-out / retention expiry of a partition eagerly evicts
// every memoized node containing it (the member set is stored per entry),
// stored bytes included. Dataset drops bump the dataset's epoch —
// generation-based wholesale invalidation, O(1) — and purge residual nodes
// for their bytes. A node computed from samples that a racing roll-out
// removed is refused at insertion (DatasetEpochs), so it cannot outlive
// the roll-out and be served after RollInAt re-places the id.

#ifndef SAMPWH_WAREHOUSE_MERGE_MEMO_H_
#define SAMPWH_WAREHOUSE_MERGE_MEMO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/merge.h"
#include "src/core/sample.h"
#include "src/util/random.h"
#include "src/util/sharded_cache.h"
#include "src/warehouse/dataset_epochs.h"
#include "src/warehouse/ids.h"

namespace sampwh {

/// Sorts `ids` into the canonical node identity of a union query, so that
/// queries naming one set in any order build one tree. InvalidArgument on a
/// repeated id: merging a partition with itself breaks the disjointness
/// Theorem 1 requires.
Status CanonicalMergeIds(std::vector<PartitionId>* ids);

/// The merge tree's shape: a node over n >= 2 sorted ids has children over
/// the first MergeTreeSplit(n) ids and the rest. The split depends only on
/// n, so the subtree over any contiguous span is the tree a query over
/// exactly that span builds.
inline size_t MergeTreeSplit(size_t n) { return n / 2; }

/// The merge tree's node step: joins the samples of the node's two
/// children on the node's identity RNG (MergeMemo::NodeRng).
Result<PartitionSample> MergeTreeNode(uint64_t warehouse_seed,
                                      const DatasetId& dataset,
                                      std::span<const PartitionId> ids,
                                      const PartitionSample& left,
                                      const PartitionSample& right,
                                      const MergeOptions& options,
                                      uint64_t options_fingerprint);

class MergeMemo {
 public:
  MergeMemo(size_t num_shards, uint64_t byte_budget);

  using View = DatasetEpochs::View;

  /// The current view of `dataset`; resolve it once per query, before any
  /// node lookup or leaf fetch, look nodes up under its epoch and pass it to
  /// every Insert of that query.
  View CurrentView(const DatasetId& dataset) const {
    return epochs_.Current(dataset);
  }

  /// A merge-tree node: its merged sample and, when the node has been
  /// encoded for an answer, the sample's SerializeTo bytes (else null).
  struct Node {
    std::shared_ptr<const PartitionSample> sample;
    std::shared_ptr<const std::string> bytes;
  };

  /// The memoized node covering `ids` (canonically sorted), with its bytes
  /// when it has them; a null sample on miss / stale epoch.
  Node Lookup(const DatasetId& dataset, std::span<const PartitionId> ids,
              uint64_t options_fingerprint, uint64_t epoch);

  /// Memoizes a computed node under view.epoch, replacing any entry under
  /// the same key, unless a partition of the dataset was invalidated since
  /// `view`. Its bytes, when present, are charged with the sample. The memo
  /// shares the sample and the bytes with the caller instead of copying
  /// them.
  void Insert(const DatasetId& dataset, std::span<const PartitionId> ids,
              uint64_t options_fingerprint, const View& view, Node node);

  /// Evicts every memoized node whose member set contains `partition`
  /// (roll-out, retention expiry). Nodes over sibling partitions survive —
  /// that is what makes rolling-window queries reuse their shared
  /// subtrees. Returns the number of nodes evicted.
  size_t InvalidatePartition(const DatasetId& dataset, PartitionId partition);

  /// Generation-based wholesale invalidation of one dataset (drop): bumps
  /// the epoch so every outstanding node of the dataset is stale, then
  /// purges them to release bytes.
  void InvalidateDataset(const DatasetId& dataset);

  /// Drops all nodes.
  void Clear();

  CacheStats Stats() const;
  uint64_t byte_budget() const { return cache_.byte_budget(); }

  /// Deterministic RNG stream id for the merge node over `ids`: a hash of
  /// (dataset, ids, options fingerprint). Identical node identity across
  /// queries — and across cold/warm runs — selects the identical stream,
  /// which is what makes memoized and recomputed nodes bit-identical.
  static uint64_t NodeStream(const DatasetId& dataset,
                             std::span<const PartitionId> ids,
                             uint64_t options_fingerprint);

  /// The RNG a merge node over `ids` draws from in a warehouse seeded with
  /// `warehouse_seed`. This is the whole distributed-exactness contract: any
  /// process that computes the node — a warehouse's merge tree, a shard
  /// evaluating a pushed-down subtree, or a coordinator joining shard
  /// results — derives the identical stream from the node's identity, so
  /// the merged bits are independent of where the node was computed.
  static Pcg64 NodeRng(uint64_t warehouse_seed, const DatasetId& dataset,
                       std::span<const PartitionId> ids,
                       uint64_t options_fingerprint);

 private:
  struct MemoNode {
    Node node;
    DatasetId dataset;
    std::vector<PartitionId> members;  // sorted
  };

  static std::string KeyFor(const DatasetId& dataset,
                            std::span<const PartitionId> ids,
                            uint64_t options_fingerprint, uint64_t epoch);

  DatasetEpochs epochs_;
  ShardedLruCache<std::string, MemoNode> cache_;
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_MERGE_MEMO_H_
