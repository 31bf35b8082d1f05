#include "src/core/merge.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "src/core/purge.h"
#include "src/core/qbound.h"
#include "src/util/deadline.h"
#include "src/util/distributions.h"
#include "src/util/logging.h"

namespace sampwh {

namespace {

bool IsReservoir(const PartitionSample& s) {
  return s.phase() == SamplePhase::kReservoir;
}

bool IsExhaustive(const PartitionSample& s) {
  return s.phase() == SamplePhase::kExhaustive;
}

// Figs. 6 and 8, lines 1-4: two exhaustive samples whose join fits within
// F are the exhaustive sample of their union. Streaming one into a sampler
// holding the other, as the figures do, never leaves phase 1, because a
// footprint never falls as values are inserted.
std::optional<PartitionSample> JoinExhaustiveIfFits(
    const PartitionSample& s1, const PartitionSample& s2,
    uint64_t footprint_bound_bytes) {
  if (!IsExhaustive(s1) || !IsExhaustive(s2) ||
      s1.histogram().JoinedFootprintBytes(s2.histogram()) >
          footprint_bound_bytes) {
    return std::nullopt;
  }
  CompactHistogram merged = s1.histogram();
  merged.Join(s2.histogram());
  return PartitionSample::MakeExhaustive(
      std::move(merged), s1.parent_size() + s2.parent_size(),
      footprint_bound_bytes);
}

}  // namespace

uint64_t MergeOptionsFingerprint(const MergeOptions& options) {
  uint64_t rate_bits = 0;
  static_assert(sizeof(rate_bits) == sizeof(options.exceedance_probability));
  std::memcpy(&rate_bits, &options.exceedance_probability, sizeof(rate_bits));
  SplitMix64 mixer(options.footprint_bound_bytes);
  uint64_t fp = mixer.Next();
  fp ^= SplitMix64(rate_bits).Next();
  fp ^= SplitMix64(options.use_exact_rate ? 2u : 0u).Next();
  return fp;
}

uint64_t SampleHypergeometricSplit(uint64_t n1, uint64_t n2, uint64_t k,
                                   Pcg64& rng) {
  return HypergeometricDistribution(n1, n2, k).Sample(rng);
}

Result<PartitionSample> HBMerge(const PartitionSample& s1,
                                const PartitionSample& s2,
                                const MergeOptions& options, Pcg64& rng) {
  SAMPWH_RETURN_IF_ERROR(s1.Validate());
  SAMPWH_RETURN_IF_ERROR(s2.Validate());
  const uint64_t n_f = MaxSampleSizeForFootprint(options.footprint_bound_bytes);
  if (n_f == 0) {
    return Status::InvalidArgument("footprint bound below one value");
  }

  // Fig. 6 lines 5-7: a reservoir sample is involved.
  if (IsReservoir(s1) || IsReservoir(s2)) {
    return HRMerge(s1, s2, options, rng);
  }

  if (std::optional<PartitionSample> joined =
          JoinExhaustiveIfFits(s1, s2, options.footprint_bound_bytes)) {
    return *std::move(joined);
  }

  // Fig. 6 lines 8-16. An exhaustive sample is a Bern(1) sample of its
  // partition, thinned like any other side.
  const uint64_t merged_parent = s1.parent_size() + s2.parent_size();
  const double q =
      options.use_exact_rate
          ? ExactBernoulliRate(merged_parent, options.exceedance_probability,
                               n_f)
          : ApproxBernoulliRate(merged_parent,
                                options.exceedance_probability, n_f);
  const double q1 = s1.sampling_rate();
  const double q2 = s2.sampling_rate();
  if (q > q1 || q > q2) {
    // Cannot thin upward: a Bern(q) sample cannot be manufactured from a
    // Bern(q_i < q) sample. This only happens when the merged bound is far
    // looser than the bounds the inputs were collected under; fall back to
    // the hypergeometric merge, which needs no common rate.
    return HRMerge(s1, s2, options, rng);
  }

  CompactHistogram h1 = BernoulliSubsample(s1.histogram(), q / q1, rng);
  CompactHistogram h2 = BernoulliSubsample(s2.histogram(), q / q2, rng);

  if (h1.JoinedFootprintBytes(h2) <= options.footprint_bound_bytes) {
    h1.Join(h2);
    return PartitionSample::MakeBernoulli(std::move(h1), merged_parent, q,
                                          options.footprint_bound_bytes);
  }

  // Fig. 6 lines 14-16 (low-probability case): reservoir-sample S1 and
  // stream S2 through the same reservoir, all in compact form.
  CompactHistogram merged =
      PurgeReservoirStreamed({&h1, &h2}, n_f, rng);
  return PartitionSample::MakeReservoir(std::move(merged), merged_parent,
                                        options.footprint_bound_bytes);
}

Result<PartitionSample> HRMerge(const PartitionSample& s1,
                                const PartitionSample& s2,
                                const MergeOptions& options, Pcg64& rng) {
  SAMPWH_RETURN_IF_ERROR(s1.Validate());
  SAMPWH_RETURN_IF_ERROR(s2.Validate());
  const uint64_t n_f = MaxSampleSizeForFootprint(options.footprint_bound_bytes);
  if (n_f == 0) {
    return Status::InvalidArgument("footprint bound below one value");
  }

  if (std::optional<PartitionSample> joined =
          JoinExhaustiveIfFits(s1, s2, options.footprint_bound_bytes)) {
    return *std::move(joined);
  }

  // Fig. 8 lines 5-12. Bernoulli inputs are admissible: conditioned on its
  // size, a Bernoulli sample is a simple random sample (§3.2). An
  // exhaustive sample is its whole partition, so it never bounds k; when
  // both are exhaustive their join breaks F, so they hold more than n_F
  // values between them.
  const uint64_t merged_parent = s1.parent_size() + s2.parent_size();
  uint64_t k = n_f;  // honor a tighter merged bound
  if (!IsExhaustive(s1)) k = std::min(k, s1.size());
  if (!IsExhaustive(s2)) k = std::min(k, s2.size());
  if (k == 0) {
    // One input is empty (possible for Bernoulli inputs); the only simple
    // random sample of size 0 is the empty sample.
    return PartitionSample::MakeReservoir(CompactHistogram(), merged_parent,
                                          options.footprint_bound_bytes);
  }

  const uint64_t l =
      SampleHypergeometricSplit(s1.parent_size(), s2.parent_size(), k, rng);
  SAMPWH_CHECK(l <= k);

  // Both sides are purged straight from their stored histograms into the
  // node's one output.
  CompactHistogram merged =
      JoinReservoirSubsamples(s1.histogram(), l, s2.histogram(), k - l, rng);
  SAMPWH_CHECK(merged.total_count() == k);
  return PartitionSample::MakeReservoir(std::move(merged), merged_parent,
                                        options.footprint_bound_bytes);
}

Result<PartitionSample> MergeSamples(const PartitionSample& s1,
                                     const PartitionSample& s2,
                                     const MergeOptions& options,
                                     Pcg64& rng) {
  return HBMerge(s1, s2, options, rng);  // dispatches reservoirs first
}

Result<PartitionSample> UnionBernoulli(
    const std::vector<const PartitionSample*>& samples, Pcg64& rng) {
  if (samples.empty()) {
    return Status::InvalidArgument("UnionBernoulli of zero samples");
  }
  double min_rate = 1.0;
  uint64_t merged_parent = 0;
  for (const PartitionSample* s : samples) {
    SAMPWH_RETURN_IF_ERROR(s->Validate());
    if (s->phase() == SamplePhase::kReservoir) {
      return Status::InvalidArgument(
          "UnionBernoulli requires Bernoulli or exhaustive inputs");
    }
    min_rate = std::min(min_rate, s->sampling_rate());
    merged_parent += s->parent_size();
  }
  std::vector<CompactHistogram> parts;
  parts.reserve(samples.size());
  for (const PartitionSample* s : samples) {
    // Equalize rates before unioning (§4.1 closing remark).
    parts.push_back(
        s->sampling_rate() > min_rate
            ? BernoulliSubsample(s->histogram(),
                                 min_rate / s->sampling_rate(), rng)
            : s->histogram());
  }
  // Join in pairwise rounds: O(total log k) linear merges rather than the
  // O(total k) of folding every input into one growing histogram.
  while (parts.size() > 1) {
    std::vector<CompactHistogram> next;
    next.reserve((parts.size() + 1) / 2);
    for (size_t i = 0; i < parts.size(); i += 2) {
      if (i + 1 < parts.size()) parts[i].Join(parts[i + 1]);
      next.push_back(std::move(parts[i]));
    }
    parts = std::move(next);
  }
  CompactHistogram merged = std::move(parts.front());
  if (min_rate >= 1.0) {
    return PartitionSample::MakeExhaustive(std::move(merged), merged_parent,
                                           /*footprint_bound_bytes=*/0);
  }
  return PartitionSample::MakeBernoulli(std::move(merged), merged_parent,
                                        min_rate,
                                        /*footprint_bound_bytes=*/0);
}

Status CanonicalMergeIds(std::vector<uint64_t>* ids) {
  std::sort(ids->begin(), ids->end());
  const auto dup = std::adjacent_find(ids->begin(), ids->end());
  if (dup != ids->end()) {
    return Status::InvalidArgument("duplicate partition id " +
                                   std::to_string(*dup));
  }
  return Status::OK();
}

namespace {

// FNV-1a over a byte range.
uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// The tree's shape: a node over n >= 2 sorted ids has children over the
// first MergeTreeSplit(n) ids and the rest.
size_t MergeTreeSplit(size_t n) { return n / 2; }

// The node step: joins the samples of the node's two children on the RNG
// stream its identity selects.
Result<PartitionSample> MergeTreeNode(const MergeTreeKey& key,
                                      std::span<const uint64_t> ids,
                                      const PartitionSample& left,
                                      const PartitionSample& right,
                                      const MergeOptions& options) {
  uint64_t stream = Fnv1a(kFnvOffset, key.dataset.data(), key.dataset.size());
  stream = Fnv1a(stream, &key.options_fingerprint,
                 sizeof(key.options_fingerprint));
  stream = Fnv1a(stream, ids.data(), ids.size_bytes());
  Pcg64 rng(key.seed ^ 0x4D454D4FULL, stream);
  return MergeSamples(left, right, options, rng);
}

struct TreeWalk {
  const MergeTreeKey& key;
  const MergeOptions& options;
  std::span<const uint64_t> ids;
  const MergeSpanSource& source;
  const MergeNodeHook& on_merged;

  Result<MergeTreeSample> Node(size_t offset, size_t count) const {
    const std::span<const uint64_t> span = ids.subspan(offset, count);
    SAMPWH_ASSIGN_OR_RETURN(MergeTreeSample whole, source(span, offset));
    if (whole != nullptr) return whole;
    if (count == 1) {
      return Status::Internal("merge tree has no sample for id " +
                              std::to_string(span[0]));
    }
    const size_t half = MergeTreeSplit(count);
    SAMPWH_ASSIGN_OR_RETURN(const MergeTreeSample left, Node(offset, half));
    SAMPWH_ASSIGN_OR_RETURN(const MergeTreeSample right,
                            Node(offset + half, count - half));
    // Cooperative cancellation for the serving path, between nodes.
    SAMPWH_RETURN_IF_ERROR(CheckThreadDeadline());
    SAMPWH_ASSIGN_OR_RETURN(PartitionSample merged,
                            MergeTreeNode(key, span, *left, *right, options));
    auto node = std::make_shared<const PartitionSample>(std::move(merged));
    if (on_merged) on_merged(span, node);
    return node;
  }
};

}  // namespace

Result<MergeTreeSample> WalkMergeTree(const MergeTreeKey& key,
                                      const MergeOptions& options,
                                      std::span<const uint64_t> ids,
                                      const MergeSpanSource& source,
                                      const MergeNodeHook& on_merged) {
  if (ids.empty()) return Status::InvalidArgument("no partitions to merge");
  return TreeWalk{key, options, ids, source, on_merged}.Node(0, ids.size());
}

Result<PartitionSample> MergeAll(
    const std::vector<const PartitionSample*>& samples,
    const MergeOptions& options, uint64_t seed) {
  if (samples.empty()) {
    return Status::InvalidArgument("MergeAll of zero samples");
  }
  std::vector<uint64_t> ids(samples.size());
  std::iota(ids.begin(), ids.end(), uint64_t{0});
  const MergeTreeKey key{seed, kMergeAllDataset,
                         MergeOptionsFingerprint(options)};
  SAMPWH_ASSIGN_OR_RETURN(
      const MergeTreeSample root,
      WalkMergeTree(key, options, ids,
                    [&samples](std::span<const uint64_t> span,
                               size_t offset) -> Result<MergeTreeSample> {
                      if (span.size() > 1) return MergeTreeSample();
                      // The caller owns the leaves: a non-owning pointer.
                      return MergeTreeSample(MergeTreeSample(),
                                             samples[offset]);
                    }));
  return *root;
}

}  // namespace sampwh
