// Algorithm HR (paper §4.2, Fig. 7): hybrid reservoir sampling with an
// a priori bounded footprint.
//
// Phase 1 ingests every value into a compact histogram. When the footprint
// reaches the bound F, the sampler switches to reservoir mode: on the first
// reservoir insertion the histogram is cut down to a simple random sample
// of size n_F (purgeReservoir) and expanded to a bag; thereafter standard
// reservoir sampling with Vitter skips maintains a size-n_F simple random
// sample. Unlike Algorithm HB, no a priori knowledge of the partition size
// is needed and the terminal sample size is stable (exactly n_F whenever
// the data outgrew the footprint).

#ifndef SAMPWH_CORE_HYBRID_RESERVOIR_H_
#define SAMPWH_CORE_HYBRID_RESERVOIR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/core/compact_histogram.h"
#include "src/core/sample.h"
#include "src/core/types.h"
#include "src/core/vitter.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace sampwh {

class HybridReservoirSampler {
 public:
  struct Options {
    /// F: hard bound, in bytes, on the sample footprint at every instant.
    uint64_t footprint_bound_bytes = 64 * 1024;
  };

  HybridReservoirSampler(const Options& options, Pcg64 rng);

  /// Processes one arriving data element.
  void Add(Value v);

  /// Batch fast path. Phase 1 stays per-element (each value updates the
  /// histogram footprint); phase 2 jumps directly between Vitter insertion
  /// indices so the amortized cost per element is O(n_F / n). The phase
  /// transition can occur mid-batch, at the same element where an
  /// element-wise Add loop would transition; RNG draw order matches Add
  /// exactly (identical samples under the same seed).
  void AddBatch(std::span<const Value> values);

  uint64_t elements_seen() const { return elements_seen_; }

  /// kExhaustive while in phase 1, kReservoir in phase 2.
  SamplePhase phase() const { return phase_; }

  uint64_t sample_size() const;
  uint64_t footprint_bytes() const;

  /// Converts the running state into a finalized PartitionSample. The
  /// sampler is left empty.
  PartitionSample Finalize();

  /// Serializes the complete mid-stream state (see HybridBernoulliSampler::
  /// SaveState); LoadState() resumes bit-identically.
  void SaveState(BinaryWriter* writer) const;
  static Result<HybridReservoirSampler> LoadState(BinaryReader* reader);

 private:
  void ExpandIfNeeded();

  Options options_;
  uint64_t n_F_;
  Pcg64 rng_;

  SamplePhase phase_ = SamplePhase::kExhaustive;
  uint64_t elements_seen_ = 0;
  uint64_t reservoir_capacity_ = 0;

  HistogramBuilder phase1_;  // phase 1, in stream order
  CompactHistogram hist_;    // unexpanded phase-2 state
  bool expanded_ = false;
  std::vector<Value> bag_;

  std::optional<VitterSkip> reservoir_skip_;
  uint64_t next_reservoir_index_ = 0;
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_HYBRID_RESERVOIR_H_
