// Sample merging (paper §4.1-4.2, Figs. 6 and 8): given uniform samples S1,
// S2 of disjoint partitions D1, D2, produce a uniform sample of D1 ∪ D2
// while respecting the footprint bound.
//
//  * HBMerge (Fig. 6) — for Algorithm HB families. Anything involving a
//    reservoir sample delegates to HRMerge. Two exhaustive samples whose
//    join fits within F merge to that join. Otherwise both sides, an
//    exhaustive one as a Bern(1) sample, are thinned to the common rate
//    q(|D1|+|D2|, p, n_F) and joined, and a join that would break the
//    bound is cut to n_F values by purgeReservoir.
//  * HRMerge (Fig. 8) — for simple random samples. Two exhaustive samples
//    whose join fits merge to that join. Otherwise it draws the left
//    share L from the hypergeometric law of Eq. (2) (Theorem 1) for a
//    merged size k = n_F, bounded by each non-exhaustive side's size,
//    subsamples each side with purgeReservoir, and joins. An optional
//    AliasCache implements the §4.2 alias-method optimization for
//    repeated symmetric merges.
//  * MergeSamples — phase-based dispatch; MergeAll — serial left-fold or
//    balanced-tree multiway merging.
//
// Every path works on the stored compact histograms; neither merge streams
// values through a sampler (DESIGN.md, "Performance: merges with an
// exhaustive side").
//
// All merge routines require the parent partitions to be disjoint; that
// contract is owned by the warehouse catalog.

#ifndef SAMPWH_CORE_MERGE_H_
#define SAMPWH_CORE_MERGE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "src/core/sample.h"
#include "src/util/alias_table.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace sampwh {

/// Caches alias tables for hypergeometric split distributions keyed by
/// (|D1|, |D2|, k). In a symmetric pairwise merge tree every level reuses
/// one distribution, so each table is built once and then sampled in O(1)
/// (paper §4.2). Thread-safe: merge nodes running concurrently on a
/// thread pool may share one cache.
class AliasCache {
 public:
  /// Draws L from Hypergeometric(n1, n2, k), building the table on first
  /// use for this key.
  uint64_t Sample(uint64_t n1, uint64_t n2, uint64_t k, Pcg64& rng);

  /// Number of distinct distributions cached so far.
  size_t size() const;

 private:
  struct Entry {
    uint64_t support_min;
    AliasTable table;
  };
  mutable std::mutex mu_;
  std::map<std::tuple<uint64_t, uint64_t, uint64_t>, Entry> tables_;
};

struct MergeOptions {
  /// F for the merged sample.
  uint64_t footprint_bound_bytes = 64 * 1024;
  /// p used when re-deriving a common Bernoulli rate in HBMerge.
  double exceedance_probability = 1e-3;
  /// Solve the rate equation exactly instead of via Eq. (1).
  bool use_exact_rate = false;
  /// When non-null, HRMerge draws its hypergeometric splits through this
  /// cache (§4.2 optimization); otherwise it uses direct inversion.
  AliasCache* alias_cache = nullptr;
};

/// Stable fingerprint of every MergeOptions field that can change the
/// merged sample's bits for a fixed RNG stream: the footprint bound, the
/// exceedance target, exact-vs-approximate rate solving, and whether an
/// alias cache is wired in (alias-table sampling consumes the RNG
/// differently from direct inversion). Memoized merge-tree nodes are keyed
/// by this fingerprint so a cached node is never served to a query running
/// under different merge semantics.
uint64_t MergeOptionsFingerprint(const MergeOptions& options);

/// Draws L, the number of elements a size-k simple random sample of
/// D1 ∪ D2 takes from D1 (|D1| = n1, |D2| = n2): Eq. (2).
uint64_t SampleHypergeometricSplit(uint64_t n1, uint64_t n2, uint64_t k,
                                   Pcg64& rng, AliasCache* cache = nullptr);

/// Fig. 6. Accepts samples whose terminal phase is exhaustive or Bernoulli
/// from either Algorithm HB or SB; delegates to HRMerge when a reservoir
/// sample is involved. The result is the exhaustive join of two exhaustive
/// samples that fits within F; otherwise a Bern(q) sample of D1 ∪ D2 at
/// the merged rate q, or, when that would break F, a simple random sample
/// of n_F of its values. An exhaustive side counts as a Bern(1) sample; a
/// Bernoulli side collected at a rate below q is handed to HRMerge.
Result<PartitionSample> HBMerge(const PartitionSample& s1,
                                const PartitionSample& s2,
                                const MergeOptions& options, Pcg64& rng);

/// Fig. 8 / Theorem 1. Both inputs must be exhaustive, reservoir, or
/// (conditionally viewed as simple random samples) Bernoulli. The result
/// is the exhaustive join of two exhaustive samples that fits within F;
/// otherwise a simple random sample of D1 ∪ D2 of size k = n_F, lowered
/// to the size of each side that is not exhaustive.
Result<PartitionSample> HRMerge(const PartitionSample& s1,
                                const PartitionSample& s2,
                                const MergeOptions& options, Pcg64& rng);

/// Phase-based dispatch: HBMerge when both inputs are Bernoulli-family
/// (exhaustive counts as either), HRMerge as soon as a reservoir sample is
/// involved. The same as HBMerge, which makes that dispatch itself.
Result<PartitionSample> MergeSamples(const PartitionSample& s1,
                                     const PartitionSample& s2,
                                     const MergeOptions& options, Pcg64& rng);

/// Union of Bernoulli samples WITHOUT enforcing a footprint bound (§4.1
/// closing remark; this is Algorithm SB's merge). All inputs must be
/// Bernoulli (or exhaustive, which is Bern(1)); rates are first equalized
/// to the minimum input rate by purgeBernoulli, then the histograms are
/// joined.
Result<PartitionSample> UnionBernoulli(
    const std::vector<const PartitionSample*>& samples, Pcg64& rng);

enum class MergeStrategy {
  kLeftFold,       ///< the paper's serial pairwise merges
  kBalancedTree,   ///< pairwise tree; pairs AliasCache for symmetric inputs
};

/// Merges any number of per-partition samples into one sample of the union
/// of their parents. Empty input is an error; a single input is returned
/// unchanged.
Result<PartitionSample> MergeAll(
    const std::vector<const PartitionSample*>& samples,
    const MergeOptions& options, Pcg64& rng,
    MergeStrategy strategy = MergeStrategy::kLeftFold);

}  // namespace sampwh

#endif  // SAMPWH_CORE_MERGE_H_
