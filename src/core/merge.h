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
//    subsamples each side with purgeReservoir, and joins.
//  * MergeSamples — phase-based dispatch.
//  * The merge tree — the one multiway merge. A union over n partitions
//    sorts their ids and merges pairwise up a balanced tree; every node
//    draws from an RNG derived from its identity. WalkMergeTree walks it
//    for the warehouse, the shard coordinator and MergeAll alike.
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
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/sample.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace sampwh {

struct MergeOptions {
  /// F for the merged sample.
  uint64_t footprint_bound_bytes = 64 * 1024;
  /// p used when re-deriving a common Bernoulli rate in HBMerge.
  double exceedance_probability = 1e-3;
  /// Solve the rate equation exactly instead of via Eq. (1).
  bool use_exact_rate = false;
};

/// Stable fingerprint of every MergeOptions field that can change the
/// merged sample's bits for a fixed RNG stream: the footprint bound, the
/// exceedance target and exact-vs-approximate rate solving. It is part of
/// every merge-tree node's identity (MergeTreeKey), so a memoized node is
/// never served to a query running under different merge semantics.
uint64_t MergeOptionsFingerprint(const MergeOptions& options);

/// Draws L, the number of elements a size-k simple random sample of
/// D1 ∪ D2 takes from D1 (|D1| = n1, |D2| = n2): Eq. (2).
uint64_t SampleHypergeometricSplit(uint64_t n1, uint64_t n2, uint64_t k,
                                   Pcg64& rng);

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

// --- The merge tree ---------------------------------------------------------
//
// Shape. A union over partitions {p1..pn} sorts the ids and rejects a
// repeated one (CanonicalMergeIds), then merges pairwise up a balanced tree:
// a node over n >= 2 sorted ids has children over the first floor(n/2) ids
// and the rest. Every interior node is a uniform sample of the union of a
// contiguous span of the sorted ids (paper §4.2, Theorem 1 — any binary
// tree shape is uniform). The split depends only on the span's length, so
// the subtree over any contiguous span is the tree a union over exactly
// that span builds.
//
// Identity. Each node draws from an RNG derived from its identity — a
// stream hashed from the tree's dataset key and merge-options fingerprint
// and the node's ids, under the tree's seed — never from query history.
// This is the whole distributed-exactness contract. A node is therefore
// the same bytes wherever and whenever it is computed: in a warehouse, from
// its memo or recomputed, on a shard serving a pushed-down span, or in a
// coordinator joining shard answers. The price is that a repeated union
// returns the identical realization; a caller that wants an independent
// draw uses a different seed.
//
// Walk. WalkMergeTree is the only code that descends the tree. A caller
// supplies a span source that answers a span whole — a leaf, a memoized
// node, a subtree served by another process — or declines, and the walker
// splits the declined span and joins its children on the node's RNG.

/// Sorts `ids` into the canonical node identity of a union, so that unions
/// naming one set in any order build one tree. InvalidArgument on a
/// repeated id: merging a partition with itself breaks the disjointness
/// Theorem 1 requires.
Status CanonicalMergeIds(std::vector<uint64_t>* ids);

/// Everything that identifies a merge tree besides its ids. `dataset` is
/// hashed by its bytes and must outlive the walk.
struct MergeTreeKey {
  uint64_t seed = 0;
  std::string_view dataset;
  /// MergeOptionsFingerprint of the options the tree merges under.
  uint64_t options_fingerprint = 0;
};

/// A node of a walk, shared rather than copied.
using MergeTreeSample = std::shared_ptr<const PartitionSample>;

/// Answers the span `span` of the walked ids, which starts at `offset`, as
/// one sample, or returns null to have the walker split it. It must answer
/// every single-id span.
using MergeSpanSource = std::function<Result<MergeTreeSample>(
    std::span<const uint64_t> span, size_t offset)>;

/// Receives each node the walker joined, with the ids it covers.
using MergeNodeHook = std::function<void(std::span<const uint64_t> span,
                                         const MergeTreeSample& node)>;

/// The root of the merge tree over the canonically sorted, non-empty `ids`,
/// merging under `options`, the options key.options_fingerprint was taken
/// of. Asks `source` for the whole span first and descends only into spans
/// it declines. Before each join it polls CheckThreadDeadline(), which reads a
/// thread-local and consumes no randomness, so a walk that is not canceled
/// is bit-identical with or without a deadline installed.
Result<MergeTreeSample> WalkMergeTree(const MergeTreeKey& key,
                                      const MergeOptions& options,
                                      std::span<const uint64_t> ids,
                                      const MergeSpanSource& source,
                                      const MergeNodeHook& on_merged = {});

/// The dataset key MergeAll walks under; a valid warehouse dataset id.
inline constexpr std::string_view kMergeAllDataset = "merge_all";

/// Merges any number of per-partition samples into one sample of the union
/// of their parents: the merge tree over positional ids 0..n-1 under
/// (seed, kMergeAllDataset, options). It answers what a warehouse seeded
/// with `seed`, merging under `options`, answers for a union of those
/// samples rolled in at ids 0..n-1 of dataset kMergeAllDataset. Empty input
/// is an error; a single input is returned unchanged.
Result<PartitionSample> MergeAll(
    const std::vector<const PartitionSample*>& samples,
    const MergeOptions& options, uint64_t seed);

}  // namespace sampwh

#endif  // SAMPWH_CORE_MERGE_H_
