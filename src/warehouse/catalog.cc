#include "src/warehouse/catalog.h"

#include <algorithm>

namespace sampwh {

Status Catalog::CreateDataset(const DatasetId& id) {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(id));
  if (datasets_.contains(id)) {
    return Status::AlreadyExists("dataset exists: " + id);
  }
  datasets_.emplace(id, DatasetState{});
  return Status::OK();
}

Status Catalog::DropDataset(const DatasetId& id) {
  if (datasets_.erase(id) == 0) {
    return Status::NotFound("no dataset: " + id);
  }
  return Status::OK();
}

bool Catalog::HasDataset(const DatasetId& id) const {
  return datasets_.contains(id);
}

std::vector<DatasetId> Catalog::ListDatasets() const {
  std::vector<DatasetId> ids;
  ids.reserve(datasets_.size());
  for (const auto& [id, state] : datasets_) ids.push_back(id);
  return ids;
}

Result<DatasetInfo> Catalog::GetDatasetInfo(const DatasetId& id) const {
  const auto it = datasets_.find(id);
  if (it == datasets_.end()) return Status::NotFound("no dataset: " + id);
  DatasetInfo info;
  info.id = id;
  info.num_partitions = it->second.partitions.size();
  for (const auto& [pid, p] : it->second.partitions) {
    info.total_parent_size += p.parent_size;
    info.total_sample_size += p.sample_size;
  }
  return info;
}

Result<PartitionId> Catalog::AllocatePartitionId(const DatasetId& dataset) {
  const auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset: " + dataset);
  }
  return it->second.next_partition_id++;
}

Status Catalog::AddPartition(const DatasetId& dataset,
                             const PartitionInfo& info) {
  const auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset: " + dataset);
  }
  DatasetState& state = it->second;
  if (state.partitions.contains(info.id)) {
    return Status::AlreadyExists("partition already rolled in");
  }
  if (info.close_key != 0 &&
      !state.close_keys.emplace(info.close_key, info.id).second) {
    return Status::AlreadyExists("close key already rolled in");
  }
  // Remote producers may supply their own ids; keep the allocator ahead.
  state.next_partition_id = std::max(state.next_partition_id, info.id + 1);
  state.partitions.emplace(info.id, info);
  return Status::OK();
}

Status Catalog::RemovePartition(const DatasetId& dataset, PartitionId id) {
  const auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset: " + dataset);
  }
  const auto pit = it->second.partitions.find(id);
  if (pit == it->second.partitions.end()) {
    return Status::NotFound("no such partition");
  }
  it->second.close_keys.erase(pit->second.close_key);
  it->second.partitions.erase(pit);
  return Status::OK();
}

std::optional<PartitionId> Catalog::PartitionWithCloseKey(
    const DatasetId& dataset, uint64_t close_key) const {
  const auto it = datasets_.find(dataset);
  if (it == datasets_.end()) return std::nullopt;
  const auto kit = it->second.close_keys.find(close_key);
  if (kit == it->second.close_keys.end()) return std::nullopt;
  return kit->second;
}

Result<PartitionInfo> Catalog::GetPartition(const DatasetId& dataset,
                                            PartitionId id) const {
  const auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset: " + dataset);
  }
  const auto pit = it->second.partitions.find(id);
  if (pit == it->second.partitions.end()) {
    return Status::NotFound("no such partition");
  }
  return pit->second;
}

Result<std::vector<PartitionInfo>> Catalog::ListPartitions(
    const DatasetId& dataset) const {
  const auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset: " + dataset);
  }
  std::vector<PartitionInfo> infos;
  infos.reserve(it->second.partitions.size());
  for (const auto& [pid, p] : it->second.partitions) infos.push_back(p);
  return infos;
}

Result<std::vector<PartitionId>> Catalog::PartitionsInTimeRange(
    const DatasetId& dataset, uint64_t from, uint64_t to) const {
  SAMPWH_ASSIGN_OR_RETURN(std::vector<PartitionInfo> infos,
                          ListPartitions(dataset));
  std::vector<PartitionId> ids;
  for (const PartitionInfo& p : infos) {
    if (p.min_timestamp <= to && p.max_timestamp >= from) {
      ids.push_back(p.id);
    }
  }
  return ids;
}

namespace {
constexpr uint32_t kManifestMagic = 0x53574d32;  // "SWM2"
// The snapshot of the layout before close keys.
constexpr uint32_t kPreviousManifestMagic = 0x53574d31;  // "SWM1"
}  // namespace

void EncodePartitionInfo(const PartitionInfo& info, BinaryWriter* writer) {
  writer->PutVarint64(info.id);
  writer->PutVarint64(info.parent_size);
  writer->PutVarint64(info.sample_size);
  writer->PutVarint64(static_cast<uint64_t>(info.phase));
  writer->PutVarint64(info.min_timestamp);
  writer->PutVarint64(info.max_timestamp);
  writer->PutVarint64(info.close_key);
}

Status DecodePartitionInfo(BinaryReader* reader, PartitionInfo* info) {
  uint64_t phase_raw;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&info->id));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&info->parent_size));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&info->sample_size));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&phase_raw));
  if (phase_raw < 1 || phase_raw > 3) {
    return Status::Corruption("bad phase in manifest");
  }
  info->phase = static_cast<SamplePhase>(phase_raw);
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&info->min_timestamp));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&info->max_timestamp));
  return reader->GetVarint64(&info->close_key);
}

void Catalog::SerializeTo(BinaryWriter* writer) const {
  writer->PutFixed32(kManifestMagic);
  writer->PutVarint64(datasets_.size());
  for (const auto& [id, state] : datasets_) {
    writer->PutString(id);
    writer->PutVarint64(state.next_partition_id);
    writer->PutVarint64(state.partitions.size());
    for (const auto& [pid, p] : state.partitions) {
      EncodePartitionInfo(p, writer);
    }
  }
}

Result<Catalog> Catalog::DeserializeFrom(BinaryReader* reader) {
  uint32_t magic;
  SAMPWH_RETURN_IF_ERROR(reader->GetFixed32(&magic));
  if (magic == kPreviousManifestMagic) {
    return Status::FailedPrecondition(
        "SWM1 catalog snapshot, a layout older than this build reads");
  }
  if (magic != kManifestMagic) {
    return Status::Corruption("bad manifest magic");
  }
  Catalog catalog;
  uint64_t num_datasets;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&num_datasets));
  for (uint64_t d = 0; d < num_datasets; ++d) {
    DatasetId id;
    SAMPWH_RETURN_IF_ERROR(reader->GetString(&id));
    SAMPWH_RETURN_IF_ERROR(catalog.CreateDataset(id));
    PartitionId next_partition_id;
    SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&next_partition_id));
    uint64_t num_partitions;
    SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&num_partitions));
    for (uint64_t i = 0; i < num_partitions; ++i) {
      PartitionInfo p;
      SAMPWH_RETURN_IF_ERROR(DecodePartitionInfo(reader, &p));
      // AddPartition indexes the close key as a roll-in does.
      if (p.id >= next_partition_id || !catalog.AddPartition(id, p).ok()) {
        return Status::Corruption(
            "partition id beyond allocator, or a duplicate, in manifest");
      }
    }
    catalog.datasets_[id].next_partition_id = next_partition_id;
  }
  return catalog;
}

}  // namespace sampwh
