// Pseudo-random number generation, implemented from scratch so that all
// sampling results are reproducible across platforms and standard-library
// versions (std::mt19937 distributions are not portable across vendors).
//
// Two generators are provided:
//   * SplitMix64 — tiny, used for seeding and stream derivation.
//   * Pcg64     — PCG XSL-RR 128/64 (O'Neill 2014), the library workhorse.

#ifndef SAMPWH_UTIL_RANDOM_H_
#define SAMPWH_UTIL_RANDOM_H_

#include <cstdint>

namespace sampwh {

/// SplitMix64 (Steele, Lea & Flood 2014). Passes BigCrush; used here to
/// expand user seeds into full generator state and to derive independent
/// per-thread streams.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// PCG XSL-RR 128/64: 128-bit LCG state with a 64-bit xorshift-rotate output
/// permutation. Period 2^128 per stream; distinct odd increments select
/// statistically independent streams, which the parallel ingestion layer
/// uses to give every partition sampler its own stream.
class Pcg64 {
 public:
  /// Seeds the generator. `stream` selects one of 2^63 independent
  /// sequences; two generators with equal seeds but distinct streams are
  /// safe to use concurrently.
  explicit Pcg64(uint64_t seed, uint64_t stream = 0);

  /// Next 64 uniformly distributed bits.
  uint64_t NextUint64() {
    state_ = state_ * kMultiplier + inc_;
    // XSL-RR output: xor-fold the 128-bit state to 64 bits, then rotate by
    // the top 6 bits.
    const uint64_t xored =
        static_cast<uint64_t>(state_ >> 64) ^ static_cast<uint64_t>(state_);
    const unsigned rot = static_cast<unsigned>(state_ >> 122);
    return (xored >> rot) | (xored << ((64 - rot) & 63));
  }

  /// Next 32 uniformly distributed bits.
  uint32_t NextUint32() { return static_cast<uint32_t>(NextUint64() >> 32); }

  /// Uniform double in [0, 1), with 53 random mantissa bits.
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1) — never returns exactly 0, which makes it
  /// safe as input to log() in inversion formulas.
  double NextDoubleOpen() {
    return (static_cast<double>(NextUint64() >> 11) + 0.5) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound), bound >= 1. Unbiased (Lemire's
  /// multiply-shift with rejection). Inline: the selection purge draws one
  /// per element.
  uint64_t UniformInt(uint64_t bound) {
    if (bound <= 1) return 0;
    u128 m = static_cast<u128>(NextUint64()) * bound;
    if (static_cast<uint64_t>(m) < bound) {
      // Lemire 2018: reject the biased low region.
      const uint64_t threshold = (0 - bound) % bound;
      while (static_cast<uint64_t>(m) < threshold) {
        m = static_cast<u128>(NextUint64()) * bound;
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive, lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    UniformInt(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// True with probability p (p clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Derives a child generator whose stream is a function of (this
  /// generator's next output, salt); used to fan out per-partition RNGs.
  Pcg64 Fork(uint64_t salt);

  /// The full 128+128 bit generator state, split into four words so it can
  /// be persisted without a 128-bit integer type in the on-disk format.
  /// FromState(SaveState()) produces a generator that emits the identical
  /// output sequence — the basis of crash-resumable sampling.
  struct State {
    uint64_t state_hi = 0;
    uint64_t state_lo = 0;
    uint64_t inc_hi = 0;
    uint64_t inc_lo = 0;
  };

  State SaveState() const;

  /// Rebuilds a generator from a saved state. The increment's low bit is
  /// forced odd (a structural invariant of PCG), so any four words yield a
  /// valid generator — corrupt input can skew, but never break, the RNG.
  static Pcg64 FromState(const State& state);

 private:
  using u128 = unsigned __int128;

  static constexpr u128 kMultiplier =
      (static_cast<u128>(2549297995355413924ULL) << 64) |
      4865540595714422341ULL;

  u128 state_;
  u128 inc_;  // odd
};

}  // namespace sampwh

#endif  // SAMPWH_UTIL_RANDOM_H_
