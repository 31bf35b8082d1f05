// Plain Bern(q) sampling (§3.1) at a fixed rate, implemented with geometric
// skips so that excluded elements cost no random-number draws. This is the
// per-partition worker of Algorithm SB, the paper's speed baseline: uniform,
// trivially mergeable (union of equal-rate Bernoulli samples of disjoint
// partitions is a Bernoulli sample of the union), but with no a priori bound
// on the sample footprint.

#ifndef SAMPWH_CORE_BERNOULLI_SAMPLER_H_
#define SAMPWH_CORE_BERNOULLI_SAMPLER_H_

#include <cstdint>
#include <span>

#include "src/core/batch_accept.h"
#include "src/core/compact_histogram.h"
#include "src/core/sample.h"
#include "src/core/types.h"
#include "src/util/distributions.h"
#include "src/util/random.h"

namespace sampwh {

class BernoulliSampler {
 public:
  /// Samples at fixed rate q in (0, 1]. `mode` picks the batch-acceptance
  /// strategy (see batch_accept.h); the two modes consume the RNG stream
  /// differently but draw from the same distribution, so the mode is part
  /// of the sampler's serialized state.
  BernoulliSampler(double q, Pcg64 rng,
                   BernAcceptMode mode = BernAcceptMode::kAuto);

  void Add(Value v);

  /// Batch fast path. In kGeometricSkip mode, jumps directly from inclusion
  /// to inclusion with the geometric skip, so the per-element cost is O(q)
  /// amortized instead of O(1) per element. In kBitmask mode, generates
  /// 64-lane acceptance bitmasks with a branch-free vectorizable compare
  /// loop and compress-stores the accepted values. Either mode consumes the
  /// RNG in exactly the same order as an element-wise Add loop in that
  /// mode, so batch and element-wise paths produce identical samples under
  /// the same seed.
  void AddBatch(std::span<const Value> values);

  uint64_t elements_seen() const { return elements_seen_; }
  uint64_t sample_size() const { return hist_.total_count(); }
  double sampling_rate() const { return q_; }
  BernAcceptMode accept_mode() const { return mode_; }

  /// Finalizes into an (unbounded-footprint) Bernoulli PartitionSample.
  PartitionSample Finalize();

  /// Serializes rate, histogram, the pending geometric skip, the RNG engine
  /// and the acceptance mode; LoadState() resumes bit-identically.
  void SaveState(BinaryWriter* writer) const;
  static Result<BernoulliSampler> LoadState(BinaryReader* reader);

 private:
  double q_;
  GeometricSkip skip_;  // kGeometricSkip: the Geometric(q_) gaps
  Pcg64 rng_;
  BernAcceptMode mode_;
  uint64_t elements_seen_ = 0;
  uint64_t gap_ = 0;  // kGeometricSkip: elements to skip before inclusion
  HistogramBuilder hist_;  // inclusions arrive in stream order
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_BERNOULLI_SAMPLER_H_
