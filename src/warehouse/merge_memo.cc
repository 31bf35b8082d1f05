#include "src/warehouse/merge_memo.h"

#include <algorithm>
#include <string>
#include <utility>

namespace sampwh {

namespace {

constexpr uint64_t kEntryOverheadBytes = 160;

}  // namespace

MergeMemo::MergeMemo(size_t num_shards, uint64_t byte_budget)
    : cache_(num_shards, byte_budget) {}

std::string MergeMemo::KeyFor(const DatasetId& dataset,
                              std::span<const PartitionId> ids,
                              uint64_t options_fingerprint, uint64_t epoch) {
  std::string key;
  key.reserve(dataset.size() + 1 + 2 * sizeof(uint64_t) +
              ids.size() * sizeof(PartitionId));
  key.append(dataset);
  key.push_back('\0');
  key.append(reinterpret_cast<const char*>(&options_fingerprint),
             sizeof(options_fingerprint));
  key.append(reinterpret_cast<const char*>(&epoch), sizeof(epoch));
  key.append(reinterpret_cast<const char*>(ids.data()),
             ids.size_bytes());
  return key;
}

MergeMemo::Node MergeMemo::Lookup(const DatasetId& dataset,
                                  std::span<const PartitionId> ids,
                                  uint64_t options_fingerprint,
                                  uint64_t epoch) {
  std::shared_ptr<const MemoNode> entry =
      cache_.Lookup(KeyFor(dataset, ids, options_fingerprint, epoch));
  if (entry == nullptr) return {};
  return entry->node;
}

void MergeMemo::Insert(const DatasetId& dataset,
                       std::span<const PartitionId> ids,
                       uint64_t options_fingerprint, const View& view,
                       Node node) {
  auto entry = std::make_shared<MemoNode>();
  entry->node = std::move(node);
  entry->dataset = dataset;
  entry->members.assign(ids.begin(), ids.end());
  const uint64_t charge =
      entry->node.sample->footprint_bytes() +
      (entry->node.bytes != nullptr ? entry->node.bytes->size() : 0) +
      dataset.size() + ids.size_bytes() + kEntryOverheadBytes;
  cache_.InsertIf(KeyFor(dataset, ids, options_fingerprint, view.epoch),
                  std::move(entry), charge,
                  [&] { return epochs_.Admits(dataset, view); });
}

size_t MergeMemo::InvalidatePartition(const DatasetId& dataset,
                                      PartitionId partition) {
  epochs_.CountInvalidation(dataset);
  return cache_.EraseIf(
      [&dataset, partition](const std::string&, const MemoNode& node) {
        return node.dataset == dataset &&
               std::binary_search(node.members.begin(), node.members.end(),
                                  partition);
      });
}

void MergeMemo::InvalidateDataset(const DatasetId& dataset) {
  epochs_.BumpEpoch(dataset);
  cache_.EraseIf([&dataset](const std::string&, const MemoNode& node) {
    return node.dataset == dataset;
  });
}

void MergeMemo::Clear() {
  epochs_.CountClear();
  cache_.Clear();
}

CacheStats MergeMemo::Stats() const { return cache_.Stats(); }

}  // namespace sampwh
