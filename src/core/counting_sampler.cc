#include "src/core/counting_sampler.h"

#include <utility>

#include "src/util/logging.h"

namespace sampwh {

CountingSampler::CountingSampler(const Options& options, Pcg64 rng)
    : options_(options), rng_(std::move(rng)) {
  SAMPWH_CHECK(options_.footprint_bound_bytes >= kPairFootprintBytes);
  SAMPWH_CHECK(options_.threshold_growth > 1.0);
}

void CountingSampler::Add(Value v) {
  ++elements_seen_;
  if (hist_.CountOf(v) > 0) {
    // Membership established: count exactly from now on.
    hist_.Insert(v);
  } else if (tau_ <= 1.0 || rng_.Bernoulli(1.0 / tau_)) {
    hist_.Insert(v);
  } else {
    return;
  }
  RaiseThresholdWhileOverBound();
}

bool CountingSampler::Delete(Value v) {
  if (hist_.CountOf(v) == 0) return false;
  hist_.Remove(v, 1);
  return true;
}

void CountingSampler::RaiseThresholdWhileOverBound() {
  while (hist_.footprint_bytes() > options_.footprint_bound_bytes) {
    const double new_tau = tau_ * options_.threshold_growth;
    // Gibbons-Matias threshold raise: for each value, flip a coin with
    // heads probability tau/tau'; on tails decrement and keep flipping at
    // heads probability 1/tau' until heads or the count hits zero. Values
    // are visited in ascending order, so the draws depend on the sample's
    // contents alone.
    const CompactHistogram sorted = hist_.Build();
    for (const auto& [value, count] : sorted.entries()) {
      uint64_t removed = 0;
      if (!rng_.Bernoulli(tau_ / new_tau)) {
        ++removed;
        while (removed < count && !rng_.Bernoulli(1.0 / new_tau)) {
          ++removed;
        }
      }
      if (removed > 0) hist_.Remove(value, removed);
    }
    tau_ = new_tau;
  }
}

}  // namespace sampwh
