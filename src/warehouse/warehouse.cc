#include "src/warehouse/warehouse.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/util/deadline.h"
#include "src/util/logging.h"
#include "src/util/serialization.h"

namespace sampwh {

namespace {

WarehouseOptions NormalizeOptions(WarehouseOptions options) {
  // The merge layer inherits the sampler's bound and exceedance target
  // unless the caller set them explicitly.
  if (options.merge.footprint_bound_bytes == 0) {
    options.merge.footprint_bound_bytes =
        options.sampler.footprint_bound_bytes;
  }
  return options;
}

// Reads and decodes the catalog a SaveManifest wrote to `path`.
Result<Catalog> LoadManifest(const std::string& path) {
  std::string bytes;
  SAMPWH_RETURN_IF_ERROR(ReadFile(path, &bytes));
  BinaryReader reader(bytes);
  return Catalog::DeserializeFrom(&reader);
}

// A served root's answer bytes, encoded once.
std::shared_ptr<const std::string> EncodeSample(
    const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return std::make_shared<const std::string>(writer.Release());
}

// True when a stored sample agrees with the catalog's metadata for it.
bool SampleMatchesInfo(const PartitionSample& sample,
                       const PartitionInfo& info) {
  return sample.parent_size() == info.parent_size &&
         sample.size() == info.sample_size && sample.phase() == info.phase;
}

}  // namespace

Warehouse::Warehouse(const WarehouseOptions& options,
                     std::unique_ptr<SampleStore> store)
    : options_(NormalizeOptions(options)),
      store_(std::move(store)),
      rng_(options_.seed) {
  SAMPWH_CHECK(store_ != nullptr);
  if (options_.worker_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }
  if (options_.sample_cache_bytes > 0) {
    sample_cache_ = std::make_unique<SampleCache>(
        options_.cache_shards, options_.sample_cache_bytes);
  }
  if (options_.merge_memo_bytes > 0) {
    merge_memo_ = std::make_unique<MergeMemo>(options_.cache_shards,
                                              options_.merge_memo_bytes);
  }
}

Warehouse::Warehouse(const WarehouseOptions& options)
    : Warehouse(options, std::make_unique<InMemorySampleStore>()) {}

Result<Warehouse::DatasetLock> Warehouse::LockDataset(
    const DatasetId& dataset) const {
  DatasetLock held;
  held.structure = std::shared_lock<std::shared_mutex>(mu_);
  const auto it = dataset_mu_.find(dataset);
  if (it == dataset_mu_.end()) {
    return Status::NotFound("no dataset: " + dataset);
  }
  held.dataset = std::unique_lock<std::mutex>(*it->second);
  return held;
}

Status Warehouse::CreateDataset(const DatasetId& id) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    SAMPWH_RETURN_IF_ERROR(catalog_.CreateDataset(id));
    dataset_mu_[id] = std::make_shared<std::mutex>();
  }
  AutoPersistManifest();
  return Status::OK();
}

Status Warehouse::CreateDataset(const DatasetId& id,
                                const SamplerConfig& config) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    SAMPWH_RETURN_IF_ERROR(catalog_.CreateDataset(id));
    dataset_mu_[id] = std::make_shared<std::mutex>();
    sampler_overrides_[id] = config;
  }
  AutoPersistManifest();
  return Status::OK();
}

SamplerConfig Warehouse::SamplerConfigFor(const DatasetId& dataset) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = sampler_overrides_.find(dataset);
  return it != sampler_overrides_.end() ? it->second : options_.sampler;
}

Status Warehouse::DropDataset(const DatasetId& id) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    SAMPWH_ASSIGN_OR_RETURN(std::vector<PartitionInfo> parts,
                            catalog_.ListPartitions(id));
    for (const PartitionInfo& p : parts) {
      // Best effort: catalog consistency matters more than store misses.
      store_->Delete(PartitionKey{id, p.id});
    }
    // A dropped dataset's ingest checkpoints are meaningless (and would
    // read as stale on the next recovery); best effort again.
    store_->DeleteCheckpoint(id);
    sampler_overrides_.erase(id);
    dataset_mu_.erase(id);
    // Epoch-bump both caches: a recreated dataset reuses partition ids from
    // 0, so pre-drop entries must become unreachable, not merely evicted.
    if (sample_cache_ != nullptr) sample_cache_->InvalidateDataset(id);
    if (merge_memo_ != nullptr) merge_memo_->InvalidateDataset(id);
    SAMPWH_RETURN_IF_ERROR(catalog_.DropDataset(id));
  }
  AutoPersistManifest();
  return Status::OK();
}

bool Warehouse::HasDataset(const DatasetId& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return catalog_.HasDataset(id);
}

std::vector<DatasetId> Warehouse::ListDatasets() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return catalog_.ListDatasets();
}

Result<DatasetInfo> Warehouse::GetDatasetInfo(const DatasetId& id) const {
  SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(id));
  return catalog_.GetDatasetInfo(id);
}

Result<std::vector<PartitionInfo>> Warehouse::ListPartitions(
    const DatasetId& dataset) const {
  SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(dataset));
  return catalog_.ListPartitions(dataset);
}

Result<std::vector<PartitionId>> Warehouse::PartitionsInTimeRange(
    const DatasetId& dataset, uint64_t from, uint64_t to) const {
  SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(dataset));
  return catalog_.PartitionsInTimeRange(dataset, from, to);
}

Result<PartitionId> Warehouse::RollIn(const DatasetId& dataset,
                                      const PartitionSample& sample,
                                      uint64_t min_timestamp,
                                      uint64_t max_timestamp) {
  SAMPWH_RETURN_IF_ERROR(sample.Validate());
  PartitionId id;
  {
    SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(dataset));
    SAMPWH_ASSIGN_OR_RETURN(id, catalog_.AllocatePartitionId(dataset));
    SAMPWH_RETURN_IF_ERROR(store_->Put(PartitionKey{dataset, id}, sample));
    PartitionInfo info;
    info.id = id;
    info.parent_size = sample.parent_size();
    info.sample_size = sample.size();
    info.phase = sample.phase();
    info.min_timestamp = min_timestamp;
    info.max_timestamp = max_timestamp;
    const Status status = catalog_.AddPartition(dataset, info);
    if (!status.ok()) {
      store_->Delete(PartitionKey{dataset, id});
      return status;
    }
    if (sample_cache_ != nullptr) {
      // Write-through: a freshly rolled-in partition is the one queries are
      // about to merge, so cache its deserialized form immediately.
      sample_cache_->Insert(dataset, sample_cache_->CurrentView(dataset), id,
                            std::make_shared<const PartitionSample>(sample));
    }
  }
  // Outside mu_ (SaveManifest takes it exclusively). Persisting the id
  // allocation durably is what lets a resumed ingestor prove whether an
  // interrupted roll-in completed.
  AutoPersistManifest();
  return id;
}

Result<PartitionId> Warehouse::RollInAt(const DatasetId& dataset,
                                        PartitionId id,
                                        const PartitionSample& sample,
                                        uint64_t min_timestamp,
                                        uint64_t max_timestamp) {
  SAMPWH_RETURN_IF_ERROR(sample.Validate());
  {
    SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(dataset));
    PartitionInfo info;
    info.id = id;
    info.parent_size = sample.parent_size();
    info.sample_size = sample.size();
    info.phase = sample.phase();
    info.min_timestamp = min_timestamp;
    info.max_timestamp = max_timestamp;
    // Register first: AddPartition rejects an occupied id before the store
    // is touched, so a collision never clobbers an existing sample. It also
    // keeps the allocator ahead of the explicit id, so locally allocated
    // roll-ins never collide with coordinator-placed ones.
    SAMPWH_RETURN_IF_ERROR(catalog_.AddPartition(dataset, info));
    const Status put = store_->Put(PartitionKey{dataset, id}, sample);
    if (!put.ok()) {
      catalog_.RemovePartition(dataset, id);
      return put;
    }
    if (sample_cache_ != nullptr) {
      sample_cache_->Insert(dataset, sample_cache_->CurrentView(dataset), id,
                            std::make_shared<const PartitionSample>(sample));
    }
  }
  AutoPersistManifest();
  return id;
}

Status Warehouse::RollOut(const DatasetId& dataset, PartitionId partition) {
  Status delete_status;
  {
    SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(dataset));
    SAMPWH_RETURN_IF_ERROR(catalog_.RemovePartition(dataset, partition));
    // Strict invalidation: the partition's cached sample and every memoized
    // merge node containing it go with the catalog entry, so no future read
    // can observe rolled-out state.
    if (sample_cache_ != nullptr) {
      sample_cache_->Invalidate(dataset, partition);
    }
    if (merge_memo_ != nullptr) {
      merge_memo_->InvalidatePartition(dataset, partition);
    }
    delete_status = store_->Delete(PartitionKey{dataset, partition});
  }
  AutoPersistManifest();
  return delete_status;
}

Result<std::vector<PartitionId>> Warehouse::ApplyRetention(
    const DatasetId& dataset, const RetentionPolicy& policy, uint64_t now) {
  std::vector<PartitionId> expired;
  {
    SAMPWH_ASSIGN_OR_RETURN(std::vector<PartitionInfo> parts,
                            ListPartitions(dataset));
    expired = RetentionCandidates(parts, policy, now);
  }
  for (const PartitionId id : expired) {
    SAMPWH_RETURN_IF_ERROR(RollOut(dataset, id));
  }
  return expired;
}

Result<PartitionId> Warehouse::CompactPartitions(
    const DatasetId& dataset, const std::vector<PartitionId>& parts) {
  if (parts.size() < 2) {
    return Status::InvalidArgument("compaction needs at least 2 partitions");
  }
  // Combined event-time range of the inputs.
  uint64_t min_ts = UINT64_MAX;
  uint64_t max_ts = 0;
  {
    SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(dataset));
    for (const PartitionId id : parts) {
      SAMPWH_ASSIGN_OR_RETURN(PartitionInfo info,
                              catalog_.GetPartition(dataset, id));
      min_ts = std::min(min_ts, info.min_timestamp);
      max_ts = std::max(max_ts, info.max_timestamp);
    }
  }
  SAMPWH_ASSIGN_OR_RETURN(const MergeMemo::Node merged,
                          MergeByIds(dataset, parts, /*with_bytes=*/false));
  // Roll the inputs out only after the merge succeeded; then roll the
  // consolidated sample in.
  for (const PartitionId id : parts) {
    SAMPWH_RETURN_IF_ERROR(RollOut(dataset, id));
  }
  return RollIn(dataset, *merged.sample, min_ts, max_ts);
}

Result<PartitionSample> Warehouse::GetSample(const DatasetId& dataset,
                                             PartitionId partition) const {
  {
    SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(dataset));
    SAMPWH_RETURN_IF_ERROR(
        catalog_.GetPartition(dataset, partition).status());
  }
  if (sample_cache_ == nullptr) {
    return store_->Get(PartitionKey{dataset, partition});
  }
  // Resolve the view before the store fetch: an insertion racing a
  // roll-out or a dataset drop is then refused.
  const SampleCache::View view = sample_cache_->CurrentView(dataset);
  if (auto cached = sample_cache_->Lookup(dataset, view.epoch, partition)) {
    return *cached;
  }
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample sample,
                          store_->Get(PartitionKey{dataset, partition}));
  auto shared = std::make_shared<const PartitionSample>(std::move(sample));
  sample_cache_->Insert(dataset, view, partition, shared);
  return *shared;
}

Result<uint64_t> Warehouse::PartitionContentDigest(
    const DatasetId& dataset, PartitionId partition) const {
  {
    SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(dataset));
    SAMPWH_RETURN_IF_ERROR(catalog_.GetPartition(dataset, partition).status());
  }
  return store_->ContentDigest(PartitionKey{dataset, partition});
}

Result<std::vector<PartitionId>> Warehouse::IngestBatch(
    const DatasetId& dataset, const std::vector<Value>& values,
    size_t num_partitions, ThreadPool* pool) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("need at least one partition");
  }
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!catalog_.HasDataset(dataset)) {
      return Status::NotFound("no dataset: " + dataset);
    }
  }
  if (pool == nullptr) pool = pool_.get();
  num_partitions = std::min<size_t>(
      num_partitions, std::max<size_t>(values.size(), size_t{1}));

  // Pre-fork one RNG stream per partition so results do not depend on
  // scheduling.
  std::vector<Pcg64> rngs;
  rngs.reserve(num_partitions);
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    for (size_t i = 0; i < num_partitions; ++i) {
      rngs.push_back(rng_.Fork(i));
    }
  }

  std::vector<PartitionSample> samples(num_partitions);
  const size_t chunk = values.size() / num_partitions;
  const size_t remainder = values.size() % num_partitions;
  const SamplerConfig dataset_config = SamplerConfigFor(dataset);
  auto run_one = [&](size_t p, size_t begin, size_t end) {
    SamplerConfig config = dataset_config;
    if (config.kind == SamplerKind::kHybridBernoulli &&
        config.expected_partition_size == 0) {
      // Batch loads know the partition size a priori — exactly the setting
      // Algorithm HB is designed for.
      config.expected_partition_size = end - begin;
    }
    AnySampler sampler(config, std::move(rngs[p]));
    sampler.AddBatch(
        std::span<const Value>(values.data() + begin, end - begin));
    samples[p] = sampler.Finalize();
  };

  size_t begin = 0;
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t p = 0; p < num_partitions; ++p) {
    const size_t size = chunk + (p < remainder ? 1 : 0);
    ranges.emplace_back(begin, begin + size);
    begin += size;
  }
  SAMPWH_CHECK(begin == values.size());

  if (pool != nullptr) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_partitions);
    for (size_t p = 0; p < num_partitions; ++p) {
      tasks.push_back(
          [&, p] { run_one(p, ranges[p].first, ranges[p].second); });
    }
    pool->SubmitBatch(std::move(tasks));
    pool->Wait();
  } else {
    for (size_t p = 0; p < num_partitions; ++p) {
      run_one(p, ranges[p].first, ranges[p].second);
    }
  }

  std::vector<PartitionId> ids;
  ids.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    SAMPWH_ASSIGN_OR_RETURN(PartitionId id, RollIn(dataset, samples[p]));
    ids.push_back(id);
  }
  return ids;
}

Result<std::vector<std::shared_ptr<const PartitionSample>>>
Warehouse::FetchSamples(const DatasetId& dataset,
                        std::span<const PartitionId> ids) {
  // Serving-path deadline probe before the (possibly disk-bound) leaf
  // fetch; see the matching probe in MergeNode.
  SAMPWH_RETURN_IF_ERROR(CheckThreadDeadline());
  std::vector<std::shared_ptr<const PartitionSample>> samples(ids.size());
  if (sample_cache_ == nullptr) {
    std::vector<PartitionKey> keys;
    keys.reserve(ids.size());
    for (const PartitionId id : ids) {
      keys.push_back(PartitionKey{dataset, id});
    }
    SAMPWH_ASSIGN_OR_RETURN(std::vector<PartitionSample> fetched,
                            store_->GetMany(keys, pool_.get()));
    for (size_t i = 0; i < fetched.size(); ++i) {
      samples[i] =
          std::make_shared<const PartitionSample>(std::move(fetched[i]));
    }
    return samples;
  }
  // Resolve the view before any store fetch so that samples read before a
  // racing roll-out or dataset drop are refused at insertion.
  const SampleCache::View view = sample_cache_->CurrentView(dataset);
  std::vector<PartitionKey> missing;
  std::vector<size_t> missing_pos;
  for (size_t i = 0; i < ids.size(); ++i) {
    samples[i] = sample_cache_->Lookup(dataset, view.epoch, ids[i]);
    if (samples[i] == nullptr) {
      missing.push_back(PartitionKey{dataset, ids[i]});
      missing_pos.push_back(i);
    }
  }
  if (!missing.empty()) {
    SAMPWH_ASSIGN_OR_RETURN(std::vector<PartitionSample> fetched,
                            store_->GetMany(missing, pool_.get()));
    for (size_t m = 0; m < fetched.size(); ++m) {
      auto shared =
          std::make_shared<const PartitionSample>(std::move(fetched[m]));
      sample_cache_->Insert(dataset, view, missing[m].partition, shared);
      samples[missing_pos[m]] = std::move(shared);
    }
  }
  return samples;
}

Result<std::shared_ptr<const PartitionSample>> Warehouse::MergeSubtree(
    const DatasetId& dataset, std::span<const PartitionId> ids,
    std::span<const std::shared_ptr<const PartitionSample>> leaves,
    uint64_t options_fingerprint, const MergeMemo::View& memo_view) {
  if (ids.size() == 1) return leaves[0];
  if (merge_memo_ != nullptr) {
    MergeMemo::Node cached =
        merge_memo_->Lookup(dataset, ids, options_fingerprint,
                            memo_view.epoch);
    if (cached.sample != nullptr) return std::move(cached.sample);
  }
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample merged,
                          MergeNode(dataset, ids, leaves, options_fingerprint,
                                    memo_view));
  // An interior node is memoized without bytes: it is encoded only if it is
  // ever served as a root.
  return Memoize(dataset, ids, options_fingerprint, memo_view,
                 {std::make_shared<const PartitionSample>(std::move(merged)),
                  nullptr})
      .sample;
}

MergeMemo::Node Warehouse::Memoize(const DatasetId& dataset,
                                   std::span<const PartitionId> ids,
                                   uint64_t options_fingerprint,
                                   const MergeMemo::View& memo_view,
                                   MergeMemo::Node node) {
  if (merge_memo_ != nullptr) {
    merge_memo_->Insert(dataset, ids, options_fingerprint, memo_view, node);
  }
  return node;
}

Result<PartitionSample> Warehouse::MergeNode(
    const DatasetId& dataset, std::span<const PartitionId> ids,
    std::span<const std::shared_ptr<const PartitionSample>> leaves,
    uint64_t options_fingerprint, const MergeMemo::View& memo_view) {
  // Cooperative cancellation for the serving path: a request whose
  // propagated deadline passed aborts here, between nodes. The check reads
  // a thread-local and consumes no randomness, so a merge that is NOT
  // canceled is bit-identical with or without a deadline installed.
  SAMPWH_RETURN_IF_ERROR(CheckThreadDeadline());
  const size_t half = MergeTreeSplit(ids.size());
  SAMPWH_ASSIGN_OR_RETURN(
      std::shared_ptr<const PartitionSample> left,
      MergeSubtree(dataset, ids.subspan(0, half), leaves.subspan(0, half),
                   options_fingerprint, memo_view));
  SAMPWH_ASSIGN_OR_RETURN(
      std::shared_ptr<const PartitionSample> right,
      MergeSubtree(dataset, ids.subspan(half), leaves.subspan(half),
                   options_fingerprint, memo_view));
  // The node's randomness is a pure function of its identity — never of
  // query history — so a recomputation after eviction (or without a memo)
  // reproduces the node bit-identically, and so does a shard or
  // coordinator computing the same node remotely.
  return MergeTreeNode(options_.seed, dataset, ids, *left, *right,
                       options_.merge, options_fingerprint);
}

Result<MergeMemo::Node> Warehouse::MergeByIds(
    const DatasetId& dataset, const std::vector<PartitionId>& parts,
    bool with_bytes) {
  if (parts.empty()) {
    return Status::InvalidArgument("no partitions to merge");
  }
  std::vector<PartitionId> ids(parts);
  SAMPWH_RETURN_IF_ERROR(CanonicalMergeIds(&ids));
  const uint64_t fingerprint = MergeOptionsFingerprint(options_.merge);
  MergeMemo::View memo_view;
  if (merge_memo_ != nullptr) {
    memo_view = merge_memo_->CurrentView(dataset);
    if (ids.size() > 1) {
      // The root's one lookup. A hit also skips the leaf fetch.
      MergeMemo::Node cached =
          merge_memo_->Lookup(dataset, ids, fingerprint, memo_view.epoch);
      if (cached.sample != nullptr) {
        if (!with_bytes || cached.bytes != nullptr) return cached;
        // First served as a root after it was memoized as an interior node
        // or for a library caller: encode once and keep the bytes.
        cached.bytes = EncodeSample(*cached.sample);
        return Memoize(dataset, ids, fingerprint, memo_view,
                       std::move(cached));
      }
    }
  }
  SAMPWH_ASSIGN_OR_RETURN(
      std::vector<std::shared_ptr<const PartitionSample>> leaves,
      FetchSamples(dataset, ids));
  // Every node passes by pointer; only the root is ever encoded.
  if (ids.size() == 1) {
    return MergeMemo::Node{
        leaves[0], with_bytes ? EncodeSample(*leaves[0]) : nullptr};
  }
  SAMPWH_ASSIGN_OR_RETURN(
      PartitionSample merged,
      MergeNode(dataset, ids, leaves, fingerprint, memo_view));
  MergeMemo::Node root{std::make_shared<const PartitionSample>(
                           std::move(merged)),
                       nullptr};
  if (with_bytes) root.bytes = EncodeSample(*root.sample);
  return Memoize(dataset, ids, fingerprint, memo_view, std::move(root));
}

Status Warehouse::CheckCataloged(const DatasetId& dataset,
                                 const std::vector<PartitionId>& parts) const {
  SAMPWH_ASSIGN_OR_RETURN(DatasetLock held, LockDataset(dataset));
  for (const PartitionId id : parts) {
    SAMPWH_RETURN_IF_ERROR(catalog_.GetPartition(dataset, id).status());
  }
  return Status::OK();
}

Result<std::vector<PartitionId>> Warehouse::AllPartitionIds(
    const DatasetId& dataset) const {
  SAMPWH_ASSIGN_OR_RETURN(std::vector<PartitionInfo> infos,
                          ListPartitions(dataset));
  std::vector<PartitionId> ids;
  ids.reserve(infos.size());
  for (const PartitionInfo& p : infos) ids.push_back(p.id);
  return ids;
}

Result<PartitionSample> Warehouse::MergedSample(
    const DatasetId& dataset, const std::vector<PartitionId>& parts) {
  SAMPWH_RETURN_IF_ERROR(CheckCataloged(dataset, parts));
  SAMPWH_ASSIGN_OR_RETURN(const MergeMemo::Node root,
                          MergeByIds(dataset, parts, /*with_bytes=*/false));
  return *root.sample;
}

Result<PartitionSample> Warehouse::MergedSampleAll(const DatasetId& dataset) {
  SAMPWH_ASSIGN_OR_RETURN(const std::vector<PartitionId> ids,
                          AllPartitionIds(dataset));
  SAMPWH_ASSIGN_OR_RETURN(const MergeMemo::Node root,
                          MergeByIds(dataset, ids, /*with_bytes=*/false));
  return *root.sample;
}

Result<PartitionSample> Warehouse::MergedSampleInTimeRange(
    const DatasetId& dataset, uint64_t from, uint64_t to) {
  SAMPWH_ASSIGN_OR_RETURN(const std::vector<PartitionId> ids,
                          PartitionsInTimeRange(dataset, from, to));
  SAMPWH_ASSIGN_OR_RETURN(const MergeMemo::Node root,
                          MergeByIds(dataset, ids, /*with_bytes=*/false));
  return *root.sample;
}

Result<std::shared_ptr<const std::string>> Warehouse::MergedSampleBytes(
    const DatasetId& dataset, const std::vector<PartitionId>& parts) {
  std::vector<PartitionId> all;
  if (parts.empty()) {
    SAMPWH_ASSIGN_OR_RETURN(all, AllPartitionIds(dataset));
  } else {
    SAMPWH_RETURN_IF_ERROR(CheckCataloged(dataset, parts));
  }
  SAMPWH_ASSIGN_OR_RETURN(
      MergeMemo::Node root,
      MergeByIds(dataset, parts.empty() ? all : parts, /*with_bytes=*/true));
  return std::move(root.bytes);
}

Pcg64 Warehouse::ForkRng() {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return rng_.Fork(0xF02C);
}

Status Warehouse::PutIngestCheckpoint(const DatasetId& dataset,
                                      std::string_view payload) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!catalog_.HasDataset(dataset)) {
      return Status::NotFound("no dataset: " + dataset);
    }
  }
  return store_->PutCheckpoint(dataset, payload);
}

Status Warehouse::AppendIngestCheckpointDeltas(
    const DatasetId& dataset, const std::vector<std::string>& records) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!catalog_.HasDataset(dataset)) {
      return Status::NotFound("no dataset: " + dataset);
    }
  }
  return store_->AppendCheckpointDeltas(dataset, records);
}

Result<CheckpointChain> Warehouse::GetIngestCheckpointChain(
    const DatasetId& dataset) const {
  return store_->GetCheckpointChain(dataset);
}

Result<std::vector<DatasetId>> Warehouse::ListIngestCheckpoints() const {
  return store_->ListCheckpoints();
}

void Warehouse::AutoPersistManifest() {
  if (options_.manifest_path.empty()) return;
  // Best effort by design: a lost manifest update only regresses the
  // catalog to an earlier consistent state. Recovery converges regardless —
  // a re-rolled-in partition reuses the id the restored allocator hands
  // out and overwrites the orphan sample with identical bytes.
  SaveManifest(options_.manifest_path);
}

WarehouseCacheStats Warehouse::GetCacheStats() const {
  WarehouseCacheStats stats;
  if (sample_cache_ != nullptr) stats.sample_cache = sample_cache_->Stats();
  if (merge_memo_ != nullptr) stats.merge_memo = merge_memo_->Stats();
  return stats;
}

void Warehouse::InvalidateCaches() {
  if (sample_cache_ != nullptr) sample_cache_->Clear();
  if (merge_memo_ != nullptr) merge_memo_->Clear();
}

Status Warehouse::SaveManifest(const std::string& path) const {
  BinaryWriter writer;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    catalog_.SerializeTo(&writer);
  }
  return WriteFileAtomic(path, writer.buffer());
}

Result<std::unique_ptr<Warehouse>> Warehouse::Restore(
    const WarehouseOptions& options, std::unique_ptr<SampleStore> store,
    const std::string& manifest_path) {
  SAMPWH_ASSIGN_OR_RETURN(Catalog catalog, LoadManifest(manifest_path));
  auto warehouse = std::make_unique<Warehouse>(options, std::move(store));
  // Cross-check every cataloged partition against its stored sample before
  // accepting the manifest.
  for (const DatasetId& dataset : catalog.ListDatasets()) {
    SAMPWH_ASSIGN_OR_RETURN(std::vector<PartitionInfo> parts,
                            catalog.ListPartitions(dataset));
    for (const PartitionInfo& p : parts) {
      SAMPWH_ASSIGN_OR_RETURN(
          PartitionSample sample,
          warehouse->store_->Get(PartitionKey{dataset, p.id}));
      if (!SampleMatchesInfo(sample, p)) {
        return Status::Corruption(
            "manifest metadata disagrees with stored sample for dataset " +
            dataset);
      }
    }
  }
  warehouse->InstallCatalog(std::move(catalog));
  return warehouse;
}

Result<Warehouse::RestoredWarehouse> Warehouse::RestoreWithRecovery(
    const WarehouseOptions& options, std::unique_ptr<SampleStore> store,
    const std::string& manifest_path) {
  SAMPWH_ASSIGN_OR_RETURN(Catalog catalog, LoadManifest(manifest_path));

  // The catalog is the source of truth for what SHOULD exist; hand that
  // expectation to the store's recovery scan so it can report the gap after
  // quarantining whatever a crash left unreadable.
  std::vector<PartitionKey> expected;
  for (const DatasetId& dataset : catalog.ListDatasets()) {
    SAMPWH_ASSIGN_OR_RETURN(std::vector<PartitionInfo> parts,
                            catalog.ListPartitions(dataset));
    for (const PartitionInfo& p : parts) {
      expected.push_back(PartitionKey{dataset, p.id});
    }
  }
  RestoredWarehouse restored;
  SAMPWH_ASSIGN_OR_RETURN(restored.report, store->Recover(expected));

  // Ingest checkpoints for datasets the catalog no longer knows are stale —
  // nothing could ever resume them — so they are deleted, not resurrected.
  if (Result<std::vector<DatasetId>> ckpts = store->ListCheckpoints();
      ckpts.ok()) {
    for (const DatasetId& dataset : ckpts.value()) {
      if (!catalog.HasDataset(dataset)) {
        store->DeleteCheckpoint(dataset);  // best effort
        restored.report.stale_checkpoints.push_back(dataset);
      }
    }
  }

  // Reconcile the catalog against the recovered store: drop what cannot be
  // served (missing or quarantined) or whose metadata disagrees with the
  // stored sample. Everything left is queryable. A read that still fails
  // after the store's retries fails the restore instead: the sample may be
  // healthy, and dropping it would shrink every union that covers it.
  for (const PartitionKey& key : expected) {
    SAMPWH_ASSIGN_OR_RETURN(PartitionInfo info,
                            catalog.GetPartition(key.dataset, key.partition));
    Result<PartitionSample> sample = store->Get(key);
    if (!sample.ok() && !sample.status().IsNotFound() &&
        !sample.status().IsCorruption()) {
      return sample.status();
    }
    bool keep = sample.ok();
    if (keep) {
      keep = SampleMatchesInfo(sample.value(), info);
      // Decodable but inconsistent with the manifest: remove the stored
      // bytes too, so catalog and store agree afterwards.
      if (!keep) store->Delete(key);  // best effort
    }
    if (!keep) {
      SAMPWH_RETURN_IF_ERROR(catalog.RemovePartition(key.dataset,
                                                     key.partition));
      restored.dropped_partitions.push_back(key);
    }
  }

  restored.warehouse = std::make_unique<Warehouse>(options, std::move(store));
  restored.warehouse->InstallCatalog(std::move(catalog));
  return restored;
}

void Warehouse::InstallCatalog(Catalog catalog) {
  catalog_ = std::move(catalog);
  for (const DatasetId& dataset : catalog_.ListDatasets()) {
    dataset_mu_[dataset] = std::make_shared<std::mutex>();
  }
}

}  // namespace sampwh
