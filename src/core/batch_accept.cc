#include "src/core/batch_accept.h"

#include <bit>

namespace sampwh {

uint64_t BernoulliAcceptMask(Pcg64& rng, double q, size_t lanes) {
  if (lanes == 0) return 0;
  if (lanes > 64) lanes = 64;
  // Degenerate probabilities consume no draws, exactly like Bernoulli().
  if (q <= 0.0) return 0;
  if (q >= 1.0) return lanes == 64 ? ~0ULL : (1ULL << lanes) - 1;

  // Phase 1: fill the draw buffer serially (the RNG recurrence is a chain).
  uint64_t draws[64];
  for (size_t i = 0; i < lanes; ++i) draws[i] = rng.NextUint64();

  // Phase 2: branch-free compare loop — no data-dependent control flow, no
  // cross-iteration dependence, so the compiler is free to vectorize it.
  // Each lane reproduces NextDouble() < q bit-for-bit.
  uint64_t mask = 0;
  for (size_t i = 0; i < lanes; ++i) {
    const double u = static_cast<double>(draws[i] >> 11) * 0x1.0p-53;
    mask |= static_cast<uint64_t>(u < q) << i;
  }
  return mask;
}

size_t CompressAccepted(std::span<const Value> values, uint64_t mask,
                        Value* out) {
  if (values.size() < 64) mask &= (1ULL << values.size()) - 1;
  size_t stored = 0;
  while (mask != 0) {
    const int lane = std::countr_zero(mask);
    out[stored++] = values[static_cast<size_t>(lane)];
    mask &= mask - 1;
  }
  return stored;
}

}  // namespace sampwh
