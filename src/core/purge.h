// The two subsampling primitives of §4 that operate directly on the compact
// (value, count) representation, without ever expanding a sample to a bag:
//
//  * purgeBernoulli (Fig. 3): Bern(q) subsample via per-pair binomial
//    thinning.
//  * purgeReservoir (Fig. 4): simple random subsample of a fixed size via
//    reservoir sampling over the implicit expanded stream, driven by Vitter
//    skips; victims are selected in O(log m) with a Fenwick tree over the
//    partially built new counts.

#ifndef SAMPWH_CORE_PURGE_H_
#define SAMPWH_CORE_PURGE_H_

#include <cstdint>
#include <vector>

#include "src/core/compact_histogram.h"
#include "src/util/random.h"

namespace sampwh {

/// Replaces *sample with a Bern(q) subsample of it: each (v, n) entry's
/// count is redrawn as Binomial(n, q) and dropped at zero (paper Fig. 3).
/// If *sample was a Bern(r) sample of a population, the result is a
/// Bern(r * q) sample of that population (§3.1).
void PurgeBernoulli(CompactHistogram* sample, double q, Pcg64& rng);

/// PurgeBernoulli of a copy, without the copy: the Bern(q) subsample of
/// `sample`. At q = 1 the sample is returned as it is and draws nothing.
CompactHistogram BernoulliSubsample(const CompactHistogram& sample, double q,
                                    Pcg64& rng);

/// Returns a simple random subsample of size min(M, total) drawn from the
/// concatenation of the expanded bags of `sources`, processing entries in
/// sorted-value order within each source (paper Fig. 4, generalized to a
/// multi-source stream so HBMerge's overflow path — Fig. 6 lines 15-16 —
/// can stream S2 into the reservoir built over S1 without expansion).
CompactHistogram PurgeReservoirStreamed(
    const std::vector<const CompactHistogram*>& sources, uint64_t M,
    Pcg64& rng);

/// In-place single-source convenience wrapper: *sample becomes a simple
/// random subsample of itself of size min(M, |*sample|).
void PurgeReservoir(CompactHistogram* sample, uint64_t M, Pcg64& rng);

/// PurgeReservoir of a copy, without the copy: a simple random subsample
/// of `sample` of size min(M, |sample|). A sample that already fits is
/// returned as it is and draws nothing.
CompactHistogram ReservoirSubsample(const CompactHistogram& sample,
                                    uint64_t M, Pcg64& rng);

/// Reference implementation of purgeReservoir with the paper's literal
/// victim-selection rule (Fig. 4 line 9): a linear scan of the partial
/// prefix sums, O(m) per eviction instead of the Fenwick tree's O(log m).
/// Statistically identical to PurgeReservoirStreamed; exists for the
/// bench_ablation_purge comparison and as an oracle in tests.
CompactHistogram PurgeReservoirStreamedLinearScan(
    const std::vector<const CompactHistogram*>& sources, uint64_t M,
    Pcg64& rng);

}  // namespace sampwh

#endif  // SAMPWH_CORE_PURGE_H_
