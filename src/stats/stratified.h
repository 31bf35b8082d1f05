// Stratified samples (§4.1): "the samples produced by Algorithm HB can
// also be simply concatenated, yielding a stratified random sample of the
// concatenation of the parent data-set partitions. A similar observation
// applies to Algorithm HR." This module makes that observation usable: a
// StratifiedSample holds one uniform sample per stratum (partition) and
// provides the classical stratified expansion estimators, which are often
// sharper than estimates from a single merged uniform sample when the
// strata are internally homogeneous. §6 lists stratified sampling as
// future work; this is that extension.

#ifndef SAMPWH_STATS_STRATIFIED_H_
#define SAMPWH_STATS_STRATIFIED_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/merge.h"
#include "src/core/sample.h"
#include "src/stats/estimators.h"
#include "src/util/status.h"

namespace sampwh {

class StratifiedSample {
 public:
  StratifiedSample() = default;

  /// Adds one stratum. The sample must validate; strata must come from
  /// mutually disjoint partitions (the caller's/warehouse's contract).
  Status AddStratum(PartitionSample sample);

  size_t num_strata() const { return strata_.size(); }
  const PartitionSample& stratum(size_t i) const { return strata_[i]; }

  /// Sum of stratum parent sizes (the size of the concatenated data set).
  uint64_t total_parent_size() const { return total_parent_size_; }
  /// Sum of stratum sample sizes.
  uint64_t total_sample_size() const;

  /// Stratified estimator of the mean of the concatenated data set:
  /// sum_h (N_h / N) * ybar_h, with the textbook stratified variance
  /// (finite-population corrected within each stratum).
  Result<Estimate> EstimateMean() const;

  /// Stratified estimator of the total: N * stratified mean.
  Result<Estimate> EstimateSum() const;

  /// Stratified estimator of the fraction of elements satisfying `pred`.
  Result<Estimate> EstimateSelectivity(
      const std::function<bool(Value)>& pred) const;

  /// Collapses the strata into ONE uniform sample of the concatenation via
  /// the merge layer — the bridge back to §4's uniform world. The strata
  /// are merged by MergeAll, seeded with one draw from `rng`.
  Result<PartitionSample> ToUniformSample(const MergeOptions& options,
                                          Pcg64& rng) const;

 private:
  std::vector<PartitionSample> strata_;
  uint64_t total_parent_size_ = 0;
};

}  // namespace sampwh

#endif  // SAMPWH_STATS_STRATIFIED_H_
