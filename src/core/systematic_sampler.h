// Systematic sampling (§6 future work: "systematic sampling"): include
// every stride-th element starting from a uniformly random offset in
// [0, stride). Classic survey-sampling design: each element has marginal
// inclusion probability exactly 1/stride and the sample size is within 1
// of N/stride deterministically, but the joint distribution is maximally
// correlated — only `stride` distinct samples are possible — so it is NOT
// uniform in the paper's §3 sense and is kept out of the warehouse's
// uniform merge paths (like concise sampling, it exposes its histogram
// directly).

#ifndef SAMPWH_CORE_SYSTEMATIC_SAMPLER_H_
#define SAMPWH_CORE_SYSTEMATIC_SAMPLER_H_

#include <cstdint>

#include "src/core/compact_histogram.h"
#include "src/core/types.h"
#include "src/util/random.h"

namespace sampwh {

class SystematicSampler {
 public:
  /// Samples every `stride`-th element (stride >= 1); the starting offset
  /// is drawn uniformly from [0, stride).
  SystematicSampler(uint64_t stride, Pcg64 rng);

  void Add(Value v);

  uint64_t stride() const { return stride_; }
  uint64_t offset() const { return offset_; }
  uint64_t elements_seen() const { return elements_seen_; }
  uint64_t sample_size() const { return hist_.total_count(); }
  CompactHistogram histogram() const { return hist_.Build(); }

 private:
  uint64_t stride_;
  uint64_t offset_;
  uint64_t elements_seen_ = 0;
  HistogramBuilder hist_;
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_SYSTEMATIC_SAMPLER_H_
