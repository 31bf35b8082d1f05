// The warehouse's merge-tree node cache. The tree itself — its shape, its
// identity-derived node RNGs and the one walker over it — lives in
// src/core/merge.h; the warehouse's walk answers a span from this cache
// before descending into it, and caches every node it joins.
//
// MergeMemo is a sharded LRU cache of interior nodes. Repeated or
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

#include "src/core/sample.h"
#include "src/util/sharded_cache.h"
#include "src/warehouse/dataset_epochs.h"
#include "src/warehouse/ids.h"

namespace sampwh {

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
