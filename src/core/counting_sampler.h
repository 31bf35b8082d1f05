// Counting sampling (Gibbons & Matias, SIGMOD 1998), the deletion-capable
// extension of concise sampling that the paper cites in §3.3: once a value
// enters the sample, every later occurrence increments its count exactly,
// and deletions in the parent data set are reflected by decrementing
// counts. Like concise sampling it is NOT uniform (the paper notes both
// schemes share the bias), so it stays outside the warehouse's uniform
// merge paths; it is provided for parity with [7] and for the tests that
// demonstrate the bias.

#ifndef SAMPWH_CORE_COUNTING_SAMPLER_H_
#define SAMPWH_CORE_COUNTING_SAMPLER_H_

#include <cstdint>

#include "src/core/compact_histogram.h"
#include "src/core/types.h"
#include "src/util/random.h"

namespace sampwh {

class CountingSampler {
 public:
  struct Options {
    /// F: bound on the compact-representation footprint, in bytes.
    uint64_t footprint_bound_bytes = 64 * 1024;
    /// Multiplicative threshold increase per purge round.
    double threshold_growth = 1.1;
  };

  CountingSampler(const Options& options, Pcg64 rng);

  /// Processes one arriving data element. Values already present always
  /// have their count incremented; new values enter with probability
  /// 1/tau. Raises the threshold while the footprint exceeds the bound.
  void Add(Value v);

  /// Processes a deletion from the parent data set: if v is in the sample,
  /// one occurrence is removed. Returns true when the sample changed.
  bool Delete(Value v);

  uint64_t elements_seen() const { return elements_seen_; }
  double threshold() const { return tau_; }
  uint64_t sample_size() const { return hist_.total_count(); }
  uint64_t footprint_bytes() const { return hist_.footprint_bytes(); }
  CompactHistogram histogram() const { return hist_.Build(); }

 private:
  void RaiseThresholdWhileOverBound();

  Options options_;
  Pcg64 rng_;
  uint64_t elements_seen_ = 0;
  double tau_ = 1.0;
  HistogramBuilder hist_;
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_COUNTING_SAMPLER_H_
