// Metadata catalog for the sample warehouse: which data sets exist, which
// partitions each one currently holds (rolled in and not yet rolled out),
// their parent sizes, sample phases and time ranges. The catalog is the
// owner of the disjointness contract the merge layer relies on: partitions
// of one data set are created disjoint (stream splits / temporal windows /
// batch divisions) and identified uniquely.

#ifndef SAMPWH_WAREHOUSE_CATALOG_H_
#define SAMPWH_WAREHOUSE_CATALOG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/core/sample.h"
#include "src/util/serialization.h"
#include "src/warehouse/ids.h"

namespace sampwh {

struct PartitionInfo {
  PartitionId id = 0;
  uint64_t parent_size = 0;
  uint64_t sample_size = 0;
  SamplePhase phase = SamplePhase::kExhaustive;
  /// Event-time range covered by the partition (0, 0 when untimed).
  uint64_t min_timestamp = 0;
  uint64_t max_timestamp = 0;
  /// Names the streamed close that rolled the partition in: nonzero only
  /// for a close of a stream with a resume point, and unique within the
  /// dataset (StreamIngestor). A replay of that close finds the partition
  /// by this key instead of rolling it in again.
  uint64_t close_key = 0;
};

/// The varint encoding of a PartitionInfo shared by the manifest snapshot
/// and the catalog log: id, parent size, sample size, phase, min and max
/// timestamp, close key.
void EncodePartitionInfo(const PartitionInfo& info, BinaryWriter* writer);
/// Decodes what EncodePartitionInfo wrote; Corruption on a bad phase.
Status DecodePartitionInfo(BinaryReader* reader, PartitionInfo* info);

struct DatasetInfo {
  DatasetId id;
  uint64_t num_partitions = 0;
  uint64_t total_parent_size = 0;
  uint64_t total_sample_size = 0;
};

/// Not thread-safe by itself; the Warehouse serializes access.
class Catalog {
 public:
  Status CreateDataset(const DatasetId& id);
  Status DropDataset(const DatasetId& id);
  bool HasDataset(const DatasetId& id) const;
  std::vector<DatasetId> ListDatasets() const;
  Result<DatasetInfo> GetDatasetInfo(const DatasetId& id) const;

  /// Reserves the next partition id for `dataset`.
  Result<PartitionId> AllocatePartitionId(const DatasetId& dataset);

  /// Registers a rolled-in partition. The id must have been allocated (or
  /// be explicitly supplied by a remote producer) and be unused, and a
  /// nonzero close key unused in the dataset (AlreadyExists otherwise).
  Status AddPartition(const DatasetId& dataset, const PartitionInfo& info);

  /// Unregisters a rolled-out partition, and its close key with it.
  Status RemovePartition(const DatasetId& dataset, PartitionId id);

  /// The partition of `dataset` tagged with `close_key`, if one is
  /// cataloged; never one for key 0.
  std::optional<PartitionId> PartitionWithCloseKey(const DatasetId& dataset,
                                                   uint64_t close_key) const;

  Result<PartitionInfo> GetPartition(const DatasetId& dataset,
                                     PartitionId id) const;
  Result<std::vector<PartitionInfo>> ListPartitions(
      const DatasetId& dataset) const;

  /// Partitions whose [min, max] timestamp range intersects [from, to].
  Result<std::vector<PartitionId>> PartitionsInTimeRange(
      const DatasetId& dataset, uint64_t from, uint64_t to) const;

  /// Manifest encoding: the full catalog state (datasets, allocators,
  /// partition metadata), so a file-backed warehouse can be reopened.
  void SerializeTo(BinaryWriter* writer) const;
  static Result<Catalog> DeserializeFrom(BinaryReader* reader);

 private:
  struct DatasetState {
    PartitionId next_partition_id = 0;
    std::map<PartitionId, PartitionInfo> partitions;
    /// The tagged partitions by close key.
    std::map<uint64_t, PartitionId> close_keys;
  };

  std::map<DatasetId, DatasetState> datasets_;
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_CATALOG_H_
