// Concise sampling (Gibbons & Matias, SIGMOD 1998), the paper's §3.3
// strawman: bounded footprint and compact storage, obtained by Bernoulli
// sampling whose rate 1/tau is lowered (with a purge of the current sample)
// whenever the footprint would exceed the bound.
//
// The paper proves this scheme is NOT uniform: because the footprint check
// operates on the *compact* representation, samples with fewer distinct
// values fit where equally sized samples with more distinct values do not,
// biasing the scheme toward low-diversity samples and under-representing
// rare values. The library therefore does not admit concise samples into
// the warehouse; the class exists as a baseline and for the empirical
// non-uniformity demonstration (tests + bench_uniformity_demo), which
// reproduces the paper's {a,a,a,b,b,b} counterexample.

#ifndef SAMPWH_CORE_CONCISE_SAMPLER_H_
#define SAMPWH_CORE_CONCISE_SAMPLER_H_

#include <cstdint>

#include "src/core/compact_histogram.h"
#include "src/core/types.h"
#include "src/util/distributions.h"
#include "src/util/random.h"

namespace sampwh {

class ConciseSampler {
 public:
  struct Options {
    /// F: bound on the compact-representation footprint, in bytes.
    uint64_t footprint_bound_bytes = 64 * 1024;
    /// Multiplicative threshold increase per purge round (tau' = tau *
    /// growth). Gibbons & Matias leave the schedule open; 1.1 mirrors their
    /// "raise by a small factor" guidance.
    double threshold_growth = 1.1;
  };

  ConciseSampler(const Options& options, Pcg64 rng);

  /// Processes one arriving data element: include with probability 1/tau,
  /// then purge (lowering the rate) while the footprint exceeds the bound.
  void Add(Value v);

  uint64_t elements_seen() const { return elements_seen_; }
  /// Current threshold tau (the sampling rate is 1/tau).
  double threshold() const { return tau_; }
  double sampling_rate() const { return 1.0 / tau_; }
  uint64_t sample_size() const { return hist_.total_count(); }
  uint64_t footprint_bytes() const { return hist_.footprint_bytes(); }

  /// The current concise sample. Deliberately NOT a PartitionSample: the
  /// scheme is not uniform, so its output must not enter merge paths that
  /// assume uniformity.
  CompactHistogram histogram() const { return hist_.Build(); }

 private:
  void PurgeWhileOverBound();

  Options options_;
  Pcg64 rng_;
  uint64_t elements_seen_ = 0;
  double tau_ = 1.0;
  GeometricSkip skip_{1.0};  // Geometric(1 / tau_) gaps
  uint64_t gap_ = 0;
  HistogramBuilder hist_;
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_CONCISE_SAMPLER_H_
