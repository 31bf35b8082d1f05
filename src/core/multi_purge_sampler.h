// The multiple-purge variant of Algorithm HB sketched (and dismissed) in
// §4.1: eliminate phase 3 and, whenever the phase-2 sample reaches n_F
// values, repeatedly thin it with ever smaller Bernoulli rates, in the
// spirit of concise sampling but operating on whole samples so uniformity
// is preserved. The paper argues this variant is dominated by Algorithm HB
// — more expensive on average, with smaller and less stable final sample
// sizes. It is implemented here as an ablation; bench_ablation_multipurge
// measures both claims.
//
// A pleasant side effect of never expanding: the sample stays in compact
// histogram form for its entire lifetime.

#ifndef SAMPWH_CORE_MULTI_PURGE_SAMPLER_H_
#define SAMPWH_CORE_MULTI_PURGE_SAMPLER_H_

#include <cstdint>

#include "src/core/compact_histogram.h"
#include "src/core/sample.h"
#include "src/core/types.h"
#include "src/util/distributions.h"
#include "src/util/random.h"

namespace sampwh {

class MultiPurgeBernoulliSampler {
 public:
  struct Options {
    /// F: hard bound, in bytes, on the sample footprint at every instant.
    uint64_t footprint_bound_bytes = 64 * 1024;
    /// N: expected partition size (as in Algorithm HB).
    uint64_t expected_population_size = 0;
    /// p: target exceedance probability for the initial rate choice.
    double exceedance_probability = 1e-3;
    /// Rate shrink factor applied at each forced purge (q' = q * shrink).
    double purge_shrink = 0.8;
  };

  MultiPurgeBernoulliSampler(const Options& options, Pcg64 rng);

  void Add(Value v);

  uint64_t elements_seen() const { return elements_seen_; }
  SamplePhase phase() const { return phase_; }
  double sampling_rate() const { return q_; }
  uint64_t sample_size() const { return hist_.total_count(); }
  uint64_t footprint_bytes() const { return hist_.footprint_bytes(); }
  /// Number of forced purges executed so far (ablation metric).
  uint64_t forced_purges() const { return forced_purges_; }

  PartitionSample Finalize();

 private:
  // Thins `sample` at ever lower rates while it holds n_F or more values,
  // then rebuilds the skip for the rate it ends at.
  void PurgeWhileAtCapacity(CompactHistogram* sample);

  Options options_;
  uint64_t n_F_;
  Pcg64 rng_;
  SamplePhase phase_ = SamplePhase::kExhaustive;
  uint64_t elements_seen_ = 0;
  double q_ = 1.0;
  GeometricSkip skip_{1.0};  // Geometric(q_) gaps
  uint64_t gap_ = 0;
  uint64_t forced_purges_ = 0;
  HistogramBuilder hist_;
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_MULTI_PURGE_SAMPLER_H_
