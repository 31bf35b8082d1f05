#include "src/warehouse/sample_cache.h"

#include <utility>

namespace sampwh {

namespace {

// Fixed per-entry overhead charged on top of the sample's histogram
// footprint: key, LRU node and index bookkeeping.
constexpr uint64_t kEntryOverheadBytes = 128;

}  // namespace

SampleCache::SampleCache(size_t num_shards, uint64_t byte_budget)
    : cache_(num_shards, byte_budget) {}

std::shared_ptr<const PartitionSample> SampleCache::Lookup(
    const DatasetId& dataset, uint64_t epoch, PartitionId partition) {
  return cache_.Lookup(EpochKey{dataset, epoch, partition});
}

std::shared_ptr<const PartitionSample> SampleCache::Peek(
    const DatasetId& dataset, uint64_t epoch, PartitionId partition) const {
  return cache_.Peek(EpochKey{dataset, epoch, partition});
}

void SampleCache::Insert(const DatasetId& dataset, const View& view,
                         PartitionId partition,
                         std::shared_ptr<const PartitionSample> sample) {
  const uint64_t charge =
      sample->footprint_bytes() + dataset.size() + kEntryOverheadBytes;
  cache_.InsertIf(EpochKey{dataset, view.epoch, partition}, std::move(sample),
                  charge,
                  [&] { return epochs_.Admits(dataset, view); });
}

void SampleCache::Invalidate(const DatasetId& dataset, PartitionId partition) {
  epochs_.CountInvalidation(dataset);
  cache_.Erase(EpochKey{dataset, CurrentView(dataset).epoch, partition});
}

void SampleCache::InvalidateDataset(const DatasetId& dataset) {
  epochs_.BumpEpoch(dataset);
  cache_.EraseIf([&dataset](const EpochKey& key, const PartitionSample&) {
    return key.dataset == dataset;
  });
}

void SampleCache::Clear() {
  epochs_.CountClear();
  cache_.Clear();
}

CacheStats SampleCache::Stats() const { return cache_.Stats(); }

}  // namespace sampwh
