// Per-dataset generations shared by the warehouse's read caches (SampleCache
// and MergeMemo).
//
// A dataset's epoch is part of every cache key and moves on drop, which
// detaches all of the dataset's entries at once. Its invalidation count
// moves on every partition invalidation (roll-out, retention expiry) before
// the cache erases that partition's entries.
//
// A reader resolves both once, before it reads any sample (Current), and
// inserts what it built only while the count is unchanged (Admits), checked
// under the cache shard's lock. An entry built from data that an
// invalidation has since removed is then either refused, or inserted before
// the invalidation's sweep reaches its shard and erased by it: never left
// behind. Partition ids are reused within an epoch — RollInAt re-places an
// id after RollOut, as a replica heal does — so a stale entry left under
// such an id would be served for the new content.

#ifndef SAMPWH_WAREHOUSE_DATASET_EPOCHS_H_
#define SAMPWH_WAREHOUSE_DATASET_EPOCHS_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "src/warehouse/ids.h"

namespace sampwh {

class DatasetEpochs {
 public:
  /// What a reader resolves once per read, before touching any sample.
  struct View {
    uint64_t epoch = 0;
    uint64_t invalidations = 0;
  };

  View Current(const DatasetId& dataset) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = views_.find(dataset);
    View view = it != views_.end() ? it->second : View{};
    view.invalidations += clears_;
    return view;
  }

  /// True while no partition of `dataset` was invalidated, the dataset was
  /// not dropped and the cache was not cleared since `view` was resolved.
  bool Admits(const DatasetId& dataset, const View& view) const {
    return Current(dataset).invalidations == view.invalidations;
  }

  /// Call before erasing a partition's entries.
  void CountInvalidation(const DatasetId& dataset) {
    std::lock_guard<std::mutex> lock(mu_);
    ++views_[dataset].invalidations;
  }

  /// Call before dropping every entry of every dataset.
  void CountClear() {
    std::lock_guard<std::mutex> lock(mu_);
    ++clears_;
  }

  /// Call before purging a dropped dataset's entries.
  void BumpEpoch(const DatasetId& dataset) {
    std::lock_guard<std::mutex> lock(mu_);
    View& view = views_[dataset];
    ++view.epoch;
    ++view.invalidations;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<DatasetId, View> views_;
  uint64_t clears_ = 0;  // counted into every dataset's invalidations
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_DATASET_EPOCHS_H_
