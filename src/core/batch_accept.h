// SIMD-friendly Bern(q) batch acceptance: instead of a data-dependent
// branch per element (or the geometric-skip jump, whose inner loop is
// serial in the RNG), acceptance decisions are generated as a 64-bit mask
// over a span of up to 64 elements — a branch-free compare loop the
// compiler can vectorize — followed by a compress-store of the accepted
// values. Each lane's decision is bit-identical to Pcg64::Bernoulli(q) on
// the same engine, so the mask path is an exact drop-in for a per-element
// acceptance loop (proven in tests/core/batch_accept_test.cc), while the
// classic geometric-skip path remains available as the scalar fallback and
// stays RNG-order-identical to the pre-existing AddBatch behavior.
//
// Mode selection: BernoulliSampler takes its acceptance mode as a
// constructor argument, kAuto unless the caller names one. kAuto resolves
// per sampling rate, because neither concrete mode wins everywhere
// (BENCH_ingest.json: bitmask runs at 0.27x the skip path at q=0.01 but
// 1.5x at q=0.50; the crossover sits between q=0.1 and q=0.5). It resolves
// to a concrete mode before the sampler's first RNG draw, so the
// serialized state always names an exact RNG-consumption discipline and
// restores bit-identically.

#ifndef SAMPWH_CORE_BATCH_ACCEPT_H_
#define SAMPWH_CORE_BATCH_ACCEPT_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/core/types.h"
#include "src/util/random.h"

namespace sampwh {

enum class BernAcceptMode : uint8_t {
  /// Jump between inclusions with geometric skips (O(q) RNG draws per
  /// element amortized; serial, branchy). The legacy path.
  kGeometricSkip = 0,
  /// Branch-free 64-lane acceptance bitmasks + compress-store (one RNG
  /// draw per element; vector-friendly inner loop).
  kBitmask = 1,
  /// Resolve per sampling rate at construction: kGeometricSkip below
  /// kAutoBitmaskRateThreshold (sparse acceptance — skips amortize the RNG
  /// cost), kBitmask at or above it (dense acceptance — the branch-free
  /// mask wins). Never appears in serialized state: samplers store the
  /// resolved concrete mode.
  kAuto = 2,
};

/// Sampling rate at or above which kAuto resolves to kBitmask. Calibrated
/// from BENCH_ingest.json (bitmask/skip throughput ratio: 0.27x at q=0.01,
/// 0.97x at q=0.10, 1.5x at q=0.50): the crossover is just above q=0.1;
/// 0.2 keeps a margin so kAuto never picks the mask where it measurably
/// loses.
inline constexpr double kAutoBitmaskRateThreshold = 0.2;

/// Acceptance bitmask for `lanes` (1..64) Bern(q) trials: bit i is set iff
/// trial i accepts. Consumes exactly `lanes` NextUint64 draws, in lane
/// order, and lane i's decision equals rng.Bernoulli(q) evaluated on the
/// same draw — the mask path and a per-element loop are interchangeable
/// mid-stream. Branch-free in the lanes loop.
uint64_t BernoulliAcceptMask(Pcg64& rng, double q, size_t lanes);

/// Compress-store: appends values[i] for every set bit i of `mask` to
/// `out` (which must have room for popcount(mask) values). Returns the
/// number of values stored. `values.size()` bounds the highest inspected
/// lane.
size_t CompressAccepted(std::span<const Value> values, uint64_t mask,
                        Value* out);

}  // namespace sampwh

#endif  // SAMPWH_CORE_BATCH_ACCEPT_H_
