// Identifiers for warehouse objects. A data set (paper §1: "a bag of
// values", e.g. one relational column or one XML leaf) is named by a
// DatasetId; its mutually disjoint partitions (§2) carry monotonically
// assigned PartitionIds within the data set.

#ifndef SAMPWH_WAREHOUSE_IDS_H_
#define SAMPWH_WAREHOUSE_IDS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

#include "src/util/status.h"

namespace sampwh {

using DatasetId = std::string;
using PartitionId = uint64_t;

struct PartitionKey {
  DatasetId dataset;
  PartitionId partition;

  bool operator==(const PartitionKey& other) const = default;
  bool operator<(const PartitionKey& other) const {
    return std::tie(dataset, partition) <
           std::tie(other.dataset, other.partition);
  }
};

/// Hash functor for PartitionKey, usable with unordered containers and the
/// sharded read-path caches (which re-mix the result for shard selection).
struct PartitionKeyHash {
  size_t operator()(const PartitionKey& key) const {
    const size_t h = std::hash<DatasetId>{}(key.dataset);
    // Boost-style combine.
    return h ^ (std::hash<PartitionId>{}(key.partition) + 0x9e3779b97f4a7c15ULL +
                (h << 6) + (h >> 2));
  }
};

/// Dataset ids double as file-name stems in the file-backed sample store,
/// so they are restricted to [A-Za-z0-9_.-], non-empty, <= 200 bytes.
Status ValidateDatasetId(const DatasetId& id);

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_IDS_H_
