// Algorithm HB (paper §4.1, Fig. 2): hybrid Bernoulli sampling with an
// a priori bounded footprint.
//
// Phase 1 ingests every value into a compact histogram (rate q = 1). If the
// footprint reaches the bound F, the sampler picks the Bernoulli rate
// q = q(N, p, n_F) so that a Bern(q) sample of the full partition exceeds
// n_F values only with probability p, thins the histogram to a Bern(q)
// subsample (purgeBernoulli), and continues in phase 2 as a plain Bern(q)
// sampler (implemented with geometric skips, the optimization of [11]). In
// the low-probability event that the sample still reaches n_F values, the
// sampler falls back to reservoir sampling of size n_F (phase 3, Vitter
// skips). The result is a uniform sample whose footprint never exceeded F
// at any instant.
//
// Reproduction note on the phase-2 -> 3 fallback (Fig. 2 lines 17-19).
// When the Bernoulli sample hits n_F values at stream position T, the
// paper's pseudocode freezes it as the initial reservoir. Conditioned on
// that stopping time, the sample is uniform over the n_F-subsets of the
// first T elements THAT CONTAIN element T — not over all n_F-subsets — so
// samples that terminate in phase 3 via this path slightly over-represent
// later stream positions. Samples terminating in phase 1 or 2, and phase-3
// samples reached directly from phase 1, are exactly uniform. The bias is
// entered with probability at most p by construction (total-variation
// impact <= p), which is why it is invisible at the paper's p <= 1e-3;
// tests/property/uniformity_property_test.cc demonstrates both the exact
// uniformity at small p and the bias when p is forced large. Callers
// needing exact uniformity under severe overshoot should use
// HybridReservoirSampler or MultiPurgeBernoulliSampler instead. Merges
// never enter this path: HBMerge cuts an overflowing join to n_F values
// with one purgeReservoir of the whole join.

#ifndef SAMPWH_CORE_HYBRID_BERNOULLI_H_
#define SAMPWH_CORE_HYBRID_BERNOULLI_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/core/compact_histogram.h"
#include "src/core/sample.h"
#include "src/core/types.h"
#include "src/core/vitter.h"
#include "src/util/distributions.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace sampwh {

class HybridBernoulliSampler {
 public:
  struct Options {
    /// F: hard bound, in bytes, on the sample footprint at every instant.
    uint64_t footprint_bound_bytes = 64 * 1024;
    /// N: the (expected) partition size, required a priori by Algorithm HB
    /// to choose q. If the actual stream is longer, the phase-3 fallback
    /// still guarantees the footprint bound; if much shorter, the sample
    /// will be smaller than necessary (the paper's §4.3 caveat).
    uint64_t expected_population_size = 0;
    /// p: target probability that a Bern(q) sample of N values exceeds n_F.
    double exceedance_probability = 1e-3;
    /// Solve f(q) = p exactly (bisection) instead of using the Eq. (1)
    /// normal approximation. Off by default, as in the paper.
    bool use_exact_rate = false;
  };

  /// `rng` should be an independent stream per partition (Pcg64::Fork).
  HybridBernoulliSampler(const Options& options, Pcg64 rng);

  /// Processes one arriving data element.
  void Add(Value v);

  /// Processes a batch of arriving data elements. Phase 1 is inherently
  /// per-element (every value updates the histogram and its footprint);
  /// phases 2 and 3 jump directly between inclusions with the geometric /
  /// Vitter skips, so RNG draws and sample updates scale with the number
  /// of inclusions, not the batch size. Phase transitions can occur
  /// mid-batch at exactly the element where the element-wise path would
  /// transition; RNG draw order matches Add exactly, so both paths yield
  /// identical samples under the same seed.
  void AddBatch(std::span<const Value> values);

  /// Number of data elements processed so far.
  uint64_t elements_seen() const { return elements_seen_; }

  /// Current phase (1, 2 or 3 in the paper's numbering).
  SamplePhase phase() const { return phase_; }

  /// The phase-2 Bernoulli rate (1.0 while in phase 1).
  double sampling_rate() const { return q_; }

  /// Current number of data-element values in the sample.
  uint64_t sample_size() const;

  /// Current footprint in bytes (never exceeds the bound).
  uint64_t footprint_bytes() const;

  /// Converts the running state into a finalized PartitionSample (compact
  /// histogram form). The sampler is left empty.
  PartitionSample Finalize();

  /// Serializes the complete mid-stream state — options, phase, rate,
  /// histogram / expanded bag (in element order), the pending geometric and
  /// Vitter skips, and the RNG engine. Non-destructive; LoadState() yields
  /// a sampler that continues bit-identically to this one.
  void SaveState(BinaryWriter* writer) const;
  static Result<HybridBernoulliSampler> LoadState(BinaryReader* reader);

 private:
  // `processed` is the number of stream elements already fully processed
  // when the transition happens; reservoir skips resume from there.
  void TransitionFromPhase1(uint64_t processed);
  void EnterPhase3(uint64_t processed);
  void ExpandIfNeeded();

  Options options_;
  uint64_t n_F_;
  Pcg64 rng_;

  SamplePhase phase_ = SamplePhase::kExhaustive;
  uint64_t elements_seen_ = 0;
  double q_ = 1.0;

  // Phase 1 histogram (values arrive in stream order, so it is hashed and
  // sorted once at the transition or Finalize).
  HistogramBuilder phase1_;
  // The unexpanded phase-2/3 subsample S' before the first post-transition
  // insertion.
  CompactHistogram hist_;
  bool expanded_ = false;
  std::vector<Value> bag_;  // expanded sample (phases 2 and 3)

  GeometricSkip bernoulli_skip_{1.0};  // draws bernoulli_gap_; built from q_
  uint64_t bernoulli_gap_ = 0;  // elements to skip before next inclusion
  std::optional<VitterSkip> reservoir_skip_;
  uint64_t next_reservoir_index_ = 0;
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_HYBRID_BERNOULLI_H_
