#include "src/warehouse/merge_memo.h"

#include <algorithm>
#include <string>
#include <utility>

namespace sampwh {

namespace {

constexpr uint64_t kEntryOverheadBytes = 160;

// FNV-1a over a byte range.
uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

}  // namespace

Status CanonicalMergeIds(std::vector<PartitionId>* ids) {
  std::sort(ids->begin(), ids->end());
  const auto dup = std::adjacent_find(ids->begin(), ids->end());
  if (dup != ids->end()) {
    return Status::InvalidArgument("duplicate partition id " +
                                   std::to_string(*dup));
  }
  return Status::OK();
}

Result<PartitionSample> MergeTreeNode(uint64_t warehouse_seed,
                                      const DatasetId& dataset,
                                      std::span<const PartitionId> ids,
                                      const PartitionSample& left,
                                      const PartitionSample& right,
                                      const MergeOptions& options,
                                      uint64_t options_fingerprint) {
  Pcg64 rng =
      MergeMemo::NodeRng(warehouse_seed, dataset, ids, options_fingerprint);
  return MergeSamples(left, right, options, rng);
}

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

uint64_t MergeMemo::NodeStream(const DatasetId& dataset,
                               std::span<const PartitionId> ids,
                               uint64_t options_fingerprint) {
  uint64_t h = Fnv1a(kFnvOffset, dataset.data(), dataset.size());
  h = Fnv1a(h, &options_fingerprint, sizeof(options_fingerprint));
  h = Fnv1a(h, ids.data(), ids.size_bytes());
  return h;
}

Pcg64 MergeMemo::NodeRng(uint64_t warehouse_seed, const DatasetId& dataset,
                         std::span<const PartitionId> ids,
                         uint64_t options_fingerprint) {
  return Pcg64(warehouse_seed ^ 0x4D454D4FULL,
               NodeStream(dataset, ids, options_fingerprint));
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
