// SampleCache: a sharded LRU cache of *deserialized* PartitionSamples in
// front of the SampleStore. Warehouse queries re-read the same per-partition
// samples over and over (every merged-union query touches each member
// partition); without this cache each read round-trips the store and fully
// re-deserializes the sample. The cache never changes sampling semantics —
// a cached read is bit-identical to a store read — because entries are
// strictly invalidated on roll-out / retention expiry, and whole datasets
// are detached by an epoch bump on drop (partition ids restart at 0 when a
// dataset is recreated, so (dataset, partition) alone is not a stable key
// across drops; (dataset, epoch, partition) is).
//
// Insertions racing with invalidation are refused: a reader resolves the
// dataset's View before it reads the store and inserts only while no
// partition of the dataset was invalidated since (DatasetEpochs). A
// partition id can be re-placed with other content after a roll-out
// (RollInAt), so a stale entry would otherwise be served for it.

#ifndef SAMPWH_WAREHOUSE_SAMPLE_CACHE_H_
#define SAMPWH_WAREHOUSE_SAMPLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/core/sample.h"
#include "src/util/sharded_cache.h"
#include "src/warehouse/dataset_epochs.h"
#include "src/warehouse/ids.h"

namespace sampwh {

class SampleCache {
 public:
  SampleCache(size_t num_shards, uint64_t byte_budget);

  using View = DatasetEpochs::View;

  /// The current view of `dataset`. Readers must resolve it BEFORE fetching
  /// from the backing store, look up under its epoch and insert with it; a
  /// concurrent roll-out or drop then refuses their insertion instead of
  /// resurrecting bytes the catalog no longer holds.
  View CurrentView(const DatasetId& dataset) const {
    return epochs_.Current(dataset);
  }

  /// Cached deserialized sample, or nullptr on miss / stale epoch.
  std::shared_ptr<const PartitionSample> Lookup(const DatasetId& dataset,
                                                uint64_t epoch,
                                                PartitionId partition);

  /// Like Lookup but side-effect free: no recency freshening, no hit/miss
  /// accounting. Lets tests and invariant checkers probe residency without
  /// perturbing LRU order or statistics.
  std::shared_ptr<const PartitionSample> Peek(const DatasetId& dataset,
                                              uint64_t epoch,
                                              PartitionId partition) const;

  /// Inserts (replacing) the sample under (dataset, view.epoch, partition),
  /// unless a partition of the dataset was invalidated since `view`.
  void Insert(const DatasetId& dataset, const View& view,
              PartitionId partition,
              std::shared_ptr<const PartitionSample> sample);

  /// Drops the current-epoch entry for one partition (roll-out, retention
  /// expiry).
  void Invalidate(const DatasetId& dataset, PartitionId partition);

  /// Detaches every entry of `dataset` by bumping its epoch (dataset drop);
  /// residual entries are also purged eagerly to release their bytes.
  void InvalidateDataset(const DatasetId& dataset);

  /// Drops all entries (all datasets, all epochs).
  void Clear();

  CacheStats Stats() const;
  uint64_t byte_budget() const { return cache_.byte_budget(); }

 private:
  struct EpochKey {
    DatasetId dataset;
    uint64_t epoch = 0;
    PartitionId partition = 0;
    bool operator==(const EpochKey& other) const = default;
  };
  struct EpochKeyHash {
    size_t operator()(const EpochKey& key) const {
      const size_t h = PartitionKeyHash{}(
          PartitionKey{key.dataset, key.partition});
      return h ^ (std::hash<uint64_t>{}(key.epoch) + 0x9e3779b97f4a7c15ULL +
                  (h << 6) + (h >> 2));
    }
  };

  DatasetEpochs epochs_;
  ShardedLruCache<EpochKey, PartitionSample, EpochKeyHash> cache_;
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_SAMPLE_CACHE_H_
