#include "src/core/multi_purge_sampler.h"

#include <utility>

#include "src/core/purge.h"
#include "src/core/qbound.h"
#include "src/util/logging.h"

namespace sampwh {

MultiPurgeBernoulliSampler::MultiPurgeBernoulliSampler(const Options& options,
                                                       Pcg64 rng)
    : options_(options),
      n_F_(MaxSampleSizeForFootprint(options.footprint_bound_bytes)),
      rng_(std::move(rng)) {
  SAMPWH_CHECK(n_F_ >= 1);
  SAMPWH_CHECK(options_.purge_shrink > 0.0 && options_.purge_shrink < 1.0);
  SAMPWH_CHECK(options_.exceedance_probability > 0.0 &&
               options_.exceedance_probability <= 0.5);
}

void MultiPurgeBernoulliSampler::Add(Value v) {
  ++elements_seen_;
  if (phase_ == SamplePhase::kExhaustive) {
    hist_.Insert(v);
    if (hist_.footprint_bytes() >= options_.footprint_bound_bytes) {
      const uint64_t n = options_.expected_population_size > 0
                             ? options_.expected_population_size
                             : elements_seen_;
      q_ = ApproxBernoulliRate(n, options_.exceedance_probability, n_F_);
      CompactHistogram sorted = hist_.Build();
      PurgeBernoulli(&sorted, q_, rng_);
      phase_ = SamplePhase::kBernoulli;
      PurgeWhileAtCapacity(&sorted);
      hist_ = HistogramBuilder(sorted);
      gap_ = skip_.Sample(rng_);
    }
    return;
  }
  if (gap_ > 0) {
    --gap_;
    return;
  }
  hist_.Insert(v);
  if (hist_.total_count() >= n_F_) {
    CompactHistogram sorted = hist_.Build();
    PurgeWhileAtCapacity(&sorted);
    hist_ = HistogramBuilder(sorted);
  }
  gap_ = skip_.Sample(rng_);
}

PartitionSample MultiPurgeBernoulliSampler::Finalize() {
  CompactHistogram hist = hist_.Build();
  hist_.Clear();
  const uint64_t bound = options_.footprint_bound_bytes;
  if (phase_ == SamplePhase::kExhaustive) {
    return PartitionSample::MakeExhaustive(std::move(hist), elements_seen_,
                                           bound);
  }
  return PartitionSample::MakeBernoulli(std::move(hist), elements_seen_, q_,
                                        bound);
}

void MultiPurgeBernoulliSampler::PurgeWhileAtCapacity(
    CompactHistogram* sample) {
  while (sample->total_count() >= n_F_) {
    const double new_q = q_ * options_.purge_shrink;
    PurgeBernoulli(sample, new_q / q_, rng_);
    q_ = new_q;
    ++forced_purges_;
  }
  skip_ = GeometricSkip(q_);
}

}  // namespace sampwh
