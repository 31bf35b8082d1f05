// The sample warehouse facade (paper Fig. 1): per-partition samples are
// rolled in as partitions arrive in the full-scale warehouse, rolled out as
// partitions are retired, and merged on demand into a uniform sample of any
// union of a data set's partitions.

#ifndef SAMPWH_WAREHOUSE_WAREHOUSE_H_
#define SAMPWH_WAREHOUSE_WAREHOUSE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/any_sampler.h"
#include "src/core/merge.h"
#include "src/core/sample.h"
#include "src/util/random.h"
#include "src/util/sharded_cache.h"
#include "src/util/thread_pool.h"
#include "src/warehouse/catalog.h"
#include "src/warehouse/catalog_log.h"
#include "src/warehouse/ids.h"
#include "src/warehouse/merge_memo.h"
#include "src/warehouse/retention.h"
#include "src/warehouse/sample_cache.h"
#include "src/warehouse/sample_store.h"

namespace sampwh {

struct WarehouseOptions {
  /// How partitions are sampled by IngestBatch / StreamIngestor.
  SamplerConfig sampler;
  /// How samples are merged at query time. The footprint bound defaults to
  /// the sampler's bound; exceedance probability likewise.
  MergeOptions merge;
  /// When > 0, the warehouse owns a ThreadPool of this many workers and
  /// uses it for multi-partition IngestBatch calls (unless the caller
  /// passes an explicit pool) and to prefetch the partitions of a union
  /// query in parallel (SampleStore::GetMany).
  size_t worker_threads = 0;
  /// Byte budget of the deserialized-sample read cache in front of the
  /// sample store; 0 disables it. The cache is semantically invisible: a
  /// cached read is bit-identical to a store read (strict invalidation on
  /// roll-out / retention / drop), it only removes store IO and
  /// deserialization from warm reads.
  uint64_t sample_cache_bytes = 64ull << 20;
  /// Byte budget of the merge-tree node cache (MergeMemo); 0 (the default)
  /// runs without one. Every merge node draws from an RNG stream derived
  /// from its (dataset, partition-id set, merge options) identity, so an
  /// answer is a pure function of the seed and the stored samples: cached
  /// or not, warm or cold, a query returns the same bytes, and a repeated
  /// query returns the identical sample. This budget changes speed only.
  uint64_t merge_memo_bytes = 0;
  /// Seed for all sampling/merging randomness in this warehouse.
  uint64_t seed = 0x5157313136ULL;
  /// When non-empty, the catalog is durable at this path: a snapshot here
  /// and a log at "<manifest_path>.log" to which every catalog mutation —
  /// roll-in, roll-out, dataset create/drop — appends one record before it
  /// returns. A mutation whose record cannot be appended fails and leaves
  /// nothing behind. Required for crash-safe resumable ingestion: a
  /// replayed close finds the partition its first attempt rolled in by its
  /// close key, which only a durable catalog keeps across a restart.
  std::string manifest_path;
};

/// Counters of the two read-path caches (zeroed structs when disabled).
struct WarehouseCacheStats {
  CacheStats sample_cache;
  CacheStats merge_memo;
};

class Warehouse {
 public:
  /// `store` must outlive nothing — the warehouse takes ownership.
  Warehouse(const WarehouseOptions& options,
            std::unique_ptr<SampleStore> store);

  /// Warehouse with an in-memory store.
  explicit Warehouse(const WarehouseOptions& options);

  const WarehouseOptions& options() const { return options_; }

  // --- Catalog operations -------------------------------------------------

  Status CreateDataset(const DatasetId& id);
  /// Drops the dataset and deletes all its stored samples.
  Status DropDataset(const DatasetId& id);
  bool HasDataset(const DatasetId& id) const;
  std::vector<DatasetId> ListDatasets() const;
  Result<DatasetInfo> GetDatasetInfo(const DatasetId& id) const;
  Result<std::vector<PartitionInfo>> ListPartitions(
      const DatasetId& dataset) const;
  Result<std::vector<PartitionId>> PartitionsInTimeRange(
      const DatasetId& dataset, uint64_t from, uint64_t to) const;

  // --- Roll-in / roll-out -------------------------------------------------

  /// Registers and stores a sample produced elsewhere (a remote sampling
  /// node, a StreamIngestor, IngestBatch). Allocates and returns the
  /// partition id. Timestamps annotate the partition's event-time range.
  /// A nonzero `close_key` (StreamIngestor) tags the partition and makes
  /// the roll-in idempotent: when the dataset already holds the key, its
  /// partition's id is returned and nothing is written, provided the
  /// stored sample's ContentDigest equals `sample`'s. A different digest
  /// is AlreadyExists; that partition is never taken for this one.
  Result<PartitionId> RollIn(const DatasetId& dataset,
                             const PartitionSample& sample,
                             uint64_t min_timestamp = 0,
                             uint64_t max_timestamp = 0,
                             uint64_t close_key = 0);

  /// Roll-in under an explicitly supplied partition id (AlreadyExists when
  /// occupied). Remote producers — a shard coordinator placing partitions
  /// across warehouse nodes under globally allocated ids — use this so the
  /// same partition carries the same id on every node that ever merges it;
  /// the catalog keeps its allocator ahead of explicit ids.
  Result<PartitionId> RollInAt(const DatasetId& dataset, PartitionId id,
                               const PartitionSample& sample,
                               uint64_t min_timestamp = 0,
                               uint64_t max_timestamp = 0);

  /// Removes the partition's sample and catalog entry.
  Status RollOut(const DatasetId& dataset, PartitionId partition);

  /// Rolls out every partition that `policy` expires at time `now`
  /// (sliding the §2 retention window in one call). Returns the ids that
  /// were rolled out.
  Result<std::vector<PartitionId>> ApplyRetention(
      const DatasetId& dataset, const RetentionPolicy& policy,
      uint64_t now);

  /// Compacts several partitions into one: merges their samples (uniform
  /// over the union, Theorem 1 machinery), rolls the inputs out and rolls
  /// the merged sample in under a fresh id covering the combined time
  /// range. This is how "one partition per day" warehouses consolidate a
  /// closed week into a single stored sample without touching the full
  /// data. Requires at least two distinct partitions; a repeated id is
  /// InvalidArgument and leaves the dataset untouched. Returns the new
  /// partition id.
  Result<PartitionId> CompactPartitions(
      const DatasetId& dataset, const std::vector<PartitionId>& parts);

  /// Fetches one stored partition sample.
  Result<PartitionSample> GetSample(const DatasetId& dataset,
                                    PartitionId partition) const;

  /// Content digest of the partition's STORED sample bytes, read from the
  /// backing store — never the read cache — so anti-entropy comparisons
  /// observe on-disk reality: a sample whose file rotted after it was
  /// cached reads Corruption here (and the store quarantines it),
  /// not a healthy cached copy. NotFound when the partition is not
  /// cataloged or its stored bytes are gone.
  Result<uint64_t> PartitionContentDigest(const DatasetId& dataset,
                                          PartitionId partition) const;

  // --- Ingestion ----------------------------------------------------------

  /// Divides `values` into `num_partitions` contiguous chunks, samples each
  /// independently (in parallel when `pool` is given), and rolls all of
  /// them in. Returns the new partition ids in chunk order.
  Result<std::vector<PartitionId>> IngestBatch(
      const DatasetId& dataset, const std::vector<Value>& values,
      size_t num_partitions, ThreadPool* pool = nullptr);

  // --- Queries ------------------------------------------------------------

  /// A uniform random sample of the union of the named partitions
  /// (which are disjoint by construction): the S_K of §2. InvalidArgument
  /// when an id is named twice.
  Result<PartitionSample> MergedSample(const DatasetId& dataset,
                                       const std::vector<PartitionId>& parts);

  /// A uniform random sample of the entire data set (all partitions).
  Result<PartitionSample> MergedSampleAll(const DatasetId& dataset);

  /// A uniform random sample of the partitions intersecting [from, to] —
  /// the paper's daily-to-weekly/monthly rollup.
  Result<PartitionSample> MergedSampleInTimeRange(const DatasetId& dataset,
                                                  uint64_t from, uint64_t to);

  /// The serving path's answer: the SerializeTo bytes of the sample that
  /// MergedSample(dataset, parts) returns, or MergedSampleAll(dataset) when
  /// `parts` is empty, after the same catalog checks. A memoized root keeps
  /// its bytes, so a repeated query shares them: no sample copy and no
  /// encode. The bytes are immutable and outlive the node's eviction.
  ///
  /// With `version`, *version is set to the dataset's catalog version,
  /// read under the lock that checks the catalog, so before the answer is
  /// resolved. Every catalog mutation of the dataset moves it (create,
  /// roll-in, roll-out, and so retention, compaction and a replica's
  /// repair; InvalidateCaches moves every dataset's), and it is drawn from
  /// one sequence across the warehouse, starting at 1, so a dropped and
  /// re-created dataset never repeats a value: equal versions read at two
  /// times mean no mutation of the dataset came between them. When it
  /// equals `current_if`, a version whose answer the caller holds, nothing
  /// is resolved and the bytes are null.
  Result<std::shared_ptr<const std::string>> MergedSampleBytes(
      const DatasetId& dataset, const std::vector<PartitionId>& parts,
      uint64_t* version = nullptr, uint64_t current_if = 0);

  /// A fresh RNG stream derived from the warehouse seed, for external
  /// samplers that will roll their results in.
  Pcg64 ForkRng();

  // --- Ingest checkpoints -------------------------------------------------

  /// Persists a StreamIngestor checkpoint record for `dataset` through the
  /// sample store (generational, CRC-framed) as a fresh snapshot
  /// generation. NotFound when the dataset does not exist.
  Status PutIngestCheckpoint(const DatasetId& dataset,
                             std::string_view payload);

  /// Appends delta-journal records to the WAL of `dataset`'s newest
  /// snapshot generation (one group commit). NotFound when the dataset
  /// does not exist, FailedPrecondition when no snapshot generation exists
  /// yet; append failures must not be retried (see
  /// SampleStore::AppendCheckpointDeltas).
  Status AppendIngestCheckpointDeltas(const DatasetId& dataset,
                                      const std::vector<std::string>& records);

  /// The newest verifiable snapshot generation for `dataset` plus its WAL
  /// records; resolve with ResolveCheckpointChain(). NotFound when none
  /// exists.
  Result<CheckpointChain> GetIngestCheckpointChain(
      const DatasetId& dataset) const;

  /// Datasets with at least one stored ingest checkpoint.
  Result<std::vector<DatasetId>> ListIngestCheckpoints() const;

  // --- Read-path caches ---------------------------------------------------

  /// Hit/miss/eviction counters and current residency of the sample cache
  /// and the merge memo.
  WarehouseCacheStats GetCacheStats() const;

  /// Drops every cached sample and memoized merge node. Queries after an
  /// invalidation recompute from the store and produce bit-identical
  /// results, since merge RNG streams derive from query identity, not cache
  /// state. Call this when the backing store is mutated externally (outside
  /// this Warehouse's roll-in/roll-out); it moves every dataset's catalog
  /// version, since such a mutation may change answers.
  void InvalidateCaches();

  // --- Durability ---------------------------------------------------------

  /// Writes the catalog (datasets, partition metadata, id allocators) to
  /// `path` with atomic replace. Together with a FileSampleStore this
  /// makes the warehouse recoverable across restarts. Saving to the
  /// warehouse's own manifest_path also truncates its catalog log, whose
  /// edits the new snapshot holds. Fails when the write fails.
  Status SaveManifest(const std::string& path) const;

  /// Reopens a warehouse from a manifest written by SaveManifest, or kept
  /// at manifest_path, replaying the catalog log beside it, and the sample
  /// store it referenced. Verifies that every cataloged partition's sample
  /// is present and consistent with its metadata. A manifest or sample an
  /// older build wrote fails the restore with FailedPrecondition naming
  /// the file, which is left as it was.
  static Result<std::unique_ptr<Warehouse>> Restore(
      const WarehouseOptions& options, std::unique_ptr<SampleStore> store,
      const std::string& manifest_path);

  /// Outcome of RestoreWithRecovery: the reopened warehouse plus what the
  /// store-level recovery scan found and which cataloged partitions had to
  /// be dropped to bring catalog and store back into agreement.
  struct RestoredWarehouse {
    std::unique_ptr<Warehouse> warehouse;
    RecoveryReport report;
    std::vector<PartitionKey> dropped_partitions;
  };

  /// Crash-tolerant reopen. Where Restore() fails on the first damaged or
  /// missing sample, this runs SampleStore::Recover() (dropping orphan
  /// temps, quarantining torn/corrupt files) and then reconciles: any
  /// cataloged partition whose sample is missing, corrupt or disagrees with
  /// its metadata is removed from the catalog (and its stored sample
  /// deleted), so the returned warehouse serves exactly the surviving
  /// partitions. A read that still fails with IOError after the store's
  /// retries fails the restore and drops nothing, and so does a store
  /// holding a file an older build wrote (FailedPrecondition naming it):
  /// the catalog must decode before anything is reconciled, so a damaged
  /// MANIFEST is Corruption and no sample file is touched.
  /// Caches start cold; queries over survivors work immediately.
  static Result<RestoredWarehouse> RestoreWithRecovery(
      const WarehouseOptions& options, std::unique_ptr<SampleStore> store,
      const std::string& manifest_path);

  /// The deserialized-sample cache, or nullptr when disabled. Test-only:
  /// lets invariant checks Peek at residency without perturbing the cache.
  const SampleCache* sample_cache_for_testing() const {
    return sample_cache_.get();
  }

  /// The backing store, for tests and benchmarks that drive it directly or
  /// read its counters.
  SampleStore* store_for_testing() { return store_.get(); }

 private:
  /// NotFound unless every id in `parts` is cataloged in `dataset`;
  /// otherwise the dataset's catalog version, read under the same lock.
  Result<uint64_t> CheckCataloged(const DatasetId& dataset,
                                  const std::vector<PartitionId>& parts) const;
  /// Every cataloged partition id of `dataset`, in catalog order, and the
  /// catalog version under the same lock into `*version` when given.
  Result<std::vector<PartitionId>> AllPartitionIds(
      const DatasetId& dataset, uint64_t* version = nullptr) const;
  /// The root of the merge tree over `parts`: the stored leaf for one id,
  /// else the memoized node or the node WalkMergeTree computes over the
  /// stored leaves and the memoized subtrees, memoizing every node it joins.
  /// Every query resolves its root here; the copying API dereferences it.
  /// With `with_bytes` the root carries its SerializeTo bytes: the memoized
  /// ones, or ones encoded here once and memoized with the node.
  Result<MergeMemo::Node> MergeByIds(const DatasetId& dataset,
                                     const std::vector<PartitionId>& parts,
                                     bool with_bytes);
  /// Memoizes a computed node when there is a memo, and hands it back.
  MergeMemo::Node Memoize(const DatasetId& dataset,
                          std::span<const PartitionId> ids,
                          uint64_t options_fingerprint,
                          const MergeMemo::View& memo_view,
                          MergeMemo::Node node);
  /// Fetches the samples for `ids` in order, through the sample cache when
  /// configured (misses prefetched in parallel via SampleStore::GetMany on
  /// the warehouse pool).
  Result<std::vector<std::shared_ptr<const PartitionSample>>> FetchSamples(
      const DatasetId& dataset, std::span<const PartitionId> ids);
  /// One dataset's mutex and the catalog version it guards.
  struct DatasetState {
    std::mutex mu;
    uint64_t version = 0;
  };
  /// Both locks guarding one dataset's partition metadata, acquired in a
  /// single pass: the shared structure lock on mu_ and the dataset's own
  /// mutex. While a DatasetLock is held the dataset cannot be dropped
  /// (drop needs mu_ exclusively), so its state stays alive.
  struct DatasetLock {
    std::shared_lock<std::shared_mutex> structure;
    std::unique_lock<std::mutex> dataset;
    DatasetState* state = nullptr;
  };
  /// Acquires the dataset's locks (NotFound when it does not exist). Must
  /// be called without mu_ held.
  Result<DatasetLock> LockDataset(const DatasetId& dataset) const;
  /// Installs a restored catalog with one datasets_ entry per dataset.
  /// Only for a warehouse no other thread can reach yet (the restores).
  void InstallCatalog(Catalog catalog);
  /// The body of RollIn and RollInAt under the dataset's lock: catalogs,
  /// stores, logs and caches the partition, or undoes what it did.
  Status RollInLocked(const DatasetId& dataset, PartitionId id,
                      const PartitionSample& sample, uint64_t min_timestamp,
                      uint64_t max_timestamp, uint64_t close_key);
  /// Run by every mutation before it takes its locks (it takes mu_
  /// exclusively): compacts the catalog log when it is not open (the
  /// warehouse's first mutation, or the first after a failed append) or
  /// has outgrown its snapshot. Fails only when the log stays closed.
  Status PrepareCatalogLog();
  /// Appends a mutation's record to the catalog log (OK without a
  /// manifest_path). Called under the mutation's lock, so the log's order
  /// is the catalog's.
  Status LogCatalogEdit(const CatalogEdit& edit);
  /// The next value of the warehouse-wide catalog version sequence.
  uint64_t NextCatalogVersion();

  WarehouseOptions options_;
  std::unique_ptr<SampleStore> store_;
  std::unique_ptr<ThreadPool> pool_;  // when options_.worker_threads > 0
  std::unique_ptr<SampleCache> sample_cache_;  // when sample_cache_bytes > 0
  std::unique_ptr<MergeMemo> merge_memo_;      // when merge_memo_bytes > 0
  std::unique_ptr<CatalogLog> catalog_log_;    // when manifest_path is set

  // Locking model. `mu_` guards the catalog *structure* (which datasets
  // exist) and datasets_; dataset creation/drop and snapshot writes take
  // it exclusively, everything else takes it shared.
  // Partition metadata of one dataset, and its catalog version, are
  // guarded by that dataset's own mutex (taken with mu_ held shared), so
  // ingest into different datasets never serializes on one global lock.
  // A mutation moves the version before it releases that mutex, so a
  // reader holding it sees the version and the metadata of one state. rng_ has a dedicated mutex so RNG
  // forks stay cheap under catalog traffic; long-running work (sampling,
  // merging, store I/O on read paths) runs outside all warehouse locks.
  mutable std::shared_mutex mu_;
  Catalog catalog_;
  mutable std::map<DatasetId, std::shared_ptr<DatasetState>> datasets_;
  std::atomic<uint64_t> catalog_version_{0};
  mutable std::mutex rng_mu_;
  Pcg64 rng_;
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_WAREHOUSE_H_
