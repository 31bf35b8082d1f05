#include "src/core/concise_sampler.h"

#include <utility>

#include "src/core/purge.h"
#include "src/util/logging.h"

namespace sampwh {

ConciseSampler::ConciseSampler(const Options& options, Pcg64 rng)
    : options_(options), rng_(std::move(rng)) {
  SAMPWH_CHECK(options_.footprint_bound_bytes >= kPairFootprintBytes);
  SAMPWH_CHECK(options_.threshold_growth > 1.0);
}

void ConciseSampler::Add(Value v) {
  ++elements_seen_;
  if (gap_ > 0) {
    --gap_;
    return;
  }
  hist_.Insert(v);
  PurgeWhileOverBound();
  if (tau_ > 1.0) {
    gap_ = skip_.Sample(rng_);
  }
}

void ConciseSampler::PurgeWhileOverBound() {
  // §3.3: reduce the sampling rate and thin the sample; by luck of the draw
  // a purge may not shrink the footprint, in which case it is repeated (at
  // an ever lower rate) until the bound holds again.
  if (hist_.footprint_bytes() <= options_.footprint_bound_bytes) return;
  CompactHistogram sorted = hist_.Build();
  while (sorted.footprint_bytes() > options_.footprint_bound_bytes) {
    const double new_tau = tau_ * options_.threshold_growth;
    PurgeBernoulli(&sorted, tau_ / new_tau, rng_);
    tau_ = new_tau;
  }
  skip_ = GeometricSkip(1.0 / tau_);
  hist_ = HistogramBuilder(sorted);
}

}  // namespace sampwh
