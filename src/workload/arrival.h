// Arrival-pattern simulators (§2): the warehouse must cope with fluctuating
// data rates — the on-the-fly ratio-trigger partitioner exists exactly for
// streams whose rate "overwhelms" expectations. These simulators produce
// (timestamp, value) pairs on a virtual clock so the temporal and
// ratio-trigger partitioners can be exercised deterministically.

#ifndef SAMPWH_WORKLOAD_ARRIVAL_H_
#define SAMPWH_WORKLOAD_ARRIVAL_H_

#include <cstdint>

#include "src/core/types.h"
#include "src/util/distributions.h"
#include "src/util/random.h"
#include "src/workload/generators.h"

namespace sampwh {

/// A timestamped data element, timestamps in abstract virtual ticks.
struct TimedValue {
  uint64_t timestamp;
  Value value;
};

/// Shape of the inter-arrival process.
enum class ArrivalPattern {
  kSteady,   ///< constant inter-arrival gap
  kBursty,   ///< alternating fast and slow phases
  kPoisson,  ///< geometric (memoryless) inter-arrival gaps
};

class ArrivalSimulator {
 public:
  struct Options {
    ArrivalPattern pattern = ArrivalPattern::kSteady;
    /// Base inter-arrival gap in ticks (mean gap for kPoisson).
    uint64_t base_gap = 1;
    /// kBursty: gap multiplier during slow phases.
    uint64_t slow_factor = 16;
    /// kBursty: elements per phase before switching.
    uint64_t phase_length = 1024;
    uint64_t seed = 42;
  };

  /// Wraps `generator`, assigning each produced value an arrival timestamp.
  ArrivalSimulator(DataGenerator generator, const Options& options);

  bool HasNext() const { return generator_.HasNext(); }
  TimedValue Next();

 private:
  DataGenerator generator_;
  Options options_;
  Pcg64 rng_;
  GeometricSkip poisson_gap_;  // kPoisson: Geometric(1 / (base_gap + 1))
  uint64_t now_ = 0;
  uint64_t produced_ = 0;
};

}  // namespace sampwh

#endif  // SAMPWH_WORKLOAD_ARRIVAL_H_
