#include "src/workload/arrival.h"

#include <utility>

namespace sampwh {

ArrivalSimulator::ArrivalSimulator(DataGenerator generator,
                                   const Options& options)
    : generator_(std::move(generator)),
      options_(options),
      rng_(options.seed),
      poisson_gap_(options.pattern == ArrivalPattern::kPoisson
                       ? 1.0 / static_cast<double>(options.base_gap + 1)
                       : 1.0) {}

TimedValue ArrivalSimulator::Next() {
  uint64_t gap = options_.base_gap;
  switch (options_.pattern) {
    case ArrivalPattern::kSteady:
      break;
    case ArrivalPattern::kBursty: {
      const bool slow_phase =
          (produced_ / options_.phase_length) % 2 == 1;
      if (slow_phase) gap *= options_.slow_factor;
      break;
    }
    case ArrivalPattern::kPoisson:
      // Geometric gaps give a memoryless discrete-time arrival process.
      gap = 1 + poisson_gap_.Sample(rng_);
      break;
  }
  now_ += gap;
  ++produced_;
  return TimedValue{now_, generator_.Next()};
}

}  // namespace sampwh
