#include "src/stats/stratified.h"

#include <cmath>
#include <utility>

namespace sampwh {

Status StratifiedSample::AddStratum(PartitionSample sample) {
  SAMPWH_RETURN_IF_ERROR(sample.Validate());
  if (sample.size() == 0) {
    return Status::InvalidArgument(
        "stratum contributes no sample values; its stratum mean is "
        "undefined");
  }
  total_parent_size_ += sample.parent_size();
  strata_.push_back(std::move(sample));
  return Status::OK();
}

uint64_t StratifiedSample::total_sample_size() const {
  uint64_t total = 0;
  for (const PartitionSample& s : strata_) total += s.size();
  return total;
}

Result<Estimate> StratifiedSample::EstimateMean() const {
  if (strata_.empty()) {
    return Status::FailedPrecondition("no strata");
  }
  const double big_n = static_cast<double>(total_parent_size_);
  double mean = 0.0;
  double variance = 0.0;
  bool exact = true;
  for (const PartitionSample& s : strata_) {
    SAMPWH_ASSIGN_OR_RETURN(Estimate stratum_mean, sampwh::EstimateMean(s));
    const double weight = static_cast<double>(s.parent_size()) / big_n;
    mean += weight * stratum_mean.value;
    variance += weight * weight * stratum_mean.standard_error *
                stratum_mean.standard_error;
    exact = exact && stratum_mean.exact;
  }
  Estimate out;
  out.value = mean;
  out.standard_error = std::sqrt(variance);
  out.exact = exact;
  return out;
}

Result<Estimate> StratifiedSample::EstimateSum() const {
  SAMPWH_ASSIGN_OR_RETURN(Estimate mean, EstimateMean());
  const double big_n = static_cast<double>(total_parent_size_);
  Estimate out;
  out.value = big_n * mean.value;
  out.standard_error = big_n * mean.standard_error;
  out.exact = mean.exact;
  return out;
}

Result<Estimate> StratifiedSample::EstimateSelectivity(
    const std::function<bool(Value)>& pred) const {
  if (strata_.empty()) {
    return Status::FailedPrecondition("no strata");
  }
  const double big_n = static_cast<double>(total_parent_size_);
  double fraction = 0.0;
  double variance = 0.0;
  bool exact = true;
  for (const PartitionSample& s : strata_) {
    SAMPWH_ASSIGN_OR_RETURN(Estimate stratum_sel,
                            sampwh::EstimateSelectivity(s, pred));
    const double weight = static_cast<double>(s.parent_size()) / big_n;
    fraction += weight * stratum_sel.value;
    variance += weight * weight * stratum_sel.standard_error *
                stratum_sel.standard_error;
    exact = exact && stratum_sel.exact;
  }
  Estimate out;
  out.value = fraction;
  out.standard_error = std::sqrt(variance);
  out.exact = exact;
  return out;
}

Result<PartitionSample> StratifiedSample::ToUniformSample(
    const MergeOptions& options, Pcg64& rng) const {
  if (strata_.empty()) {
    return Status::FailedPrecondition("no strata");
  }
  std::vector<const PartitionSample*> pointers;
  pointers.reserve(strata_.size());
  for (const PartitionSample& s : strata_) pointers.push_back(&s);
  return MergeAll(pointers, options, rng.NextUint64());
}

}  // namespace sampwh
