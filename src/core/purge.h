// The two subsampling primitives of §4 that operate directly on the compact
// (value, count) representation, without ever expanding a sample to a bag:
//
//  * purgeBernoulli (Fig. 3): Bern(q) subsample via per-pair binomial
//    thinning. A count-1 pair's binomial is one uniform compared with
//    pmf(0), which is computed once per purge; the draws are
//    SampleBinomial's, bit for bit.
//  * purgeReservoir (Fig. 4): simple random subsample of a fixed size.
//    The library draws it by sequential selection (Knuth's Algorithm S)
//    in one walk of the sorted entries, which gives Fig. 4's law — a
//    uniform M-subset of the expanded bag — with no skips, no victims and
//    no search structure. Fig. 4's own loop is kept as the oracle.

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
/// `sample`, in one walk of its entries in value order. The generator
/// sees exactly the draws of one SampleBinomial(rng, n, q) per entry: an
/// entry of n > 1 copies makes that call, and a count-1 entry makes the
/// call's one NextDouble() and compares it with the inversion's pmf(0),
/// computed once (flipped for q > 0.5, as SampleBinomial's symmetry
/// does). At q = 0 the result is empty and at q = 1 the sample is
/// returned as it is; neither draws.
CompactHistogram BernoulliSubsample(const CompactHistogram& sample, double q,
                                    Pcg64& rng);

/// Returns a simple random subsample of size min(M, total) of the union of
/// the expanded bags of `sources`: their join, then one selection (HBMerge's
/// overflow path, Fig. 6 lines 14-16, without expansion). A union that
/// already fits is returned whole and draws nothing.
CompactHistogram PurgeReservoirStreamed(
    const std::vector<const CompactHistogram*>& sources, uint64_t M,
    Pcg64& rng);

/// In-place single-source convenience wrapper: *sample becomes a simple
/// random subsample of itself of size min(M, |*sample|).
void PurgeReservoir(CompactHistogram* sample, uint64_t M, Pcg64& rng);

/// PurgeReservoir of a copy, without the copy: a simple random subsample
/// of `sample` of size min(M, |sample|), in one walk of its entries. Each
/// element is kept with probability need/rest (an exact integer compare);
/// an entry of many copies draws its kept count from the hypergeometric
/// law in one draw. A sample that already fits is returned as it is and
/// draws nothing.
CompactHistogram ReservoirSubsample(const CompactHistogram& sample,
                                    uint64_t M, Pcg64& rng);

/// The join of a simple random subsample of size min(m1, |h1|) of `h1`
/// and an independent one of size min(m2, |h2|) of `h2` (HRMerge, Fig. 8
/// lines 10-12): both selections run in one walk of the two entry lists
/// in value order and write one sorted output, with no per-side histogram
/// and no join.
CompactHistogram JoinReservoirSubsamples(const CompactHistogram& h1,
                                         uint64_t m1,
                                         const CompactHistogram& h2,
                                         uint64_t m2, Pcg64& rng);

/// The paper's purgeReservoir as printed (Fig. 4): reservoir sampling over
/// the sources' concatenated expanded stream, driven by Vitter skips, with
/// each victim found by a linear scan of the partial prefix sums (line 9).
/// Same law as PurgeReservoirStreamed, different draws; exists for the
/// bench_ablation_purge comparison and as the distributional oracle in
/// tests.
CompactHistogram PurgeReservoirStreamedLinearScan(
    const std::vector<const CompactHistogram*>& sources, uint64_t M,
    Pcg64& rng);

}  // namespace sampwh

#endif  // SAMPWH_CORE_PURGE_H_
