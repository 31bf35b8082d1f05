#include "src/core/merge.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "src/core/purge.h"
#include "src/core/qbound.h"
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
  fp ^= SplitMix64((options.use_exact_rate ? 2u : 0u) |
                   (options.alias_cache != nullptr ? 1u : 0u))
            .Next();
  return fp;
}

uint64_t AliasCache::Sample(uint64_t n1, uint64_t n2, uint64_t k,
                            Pcg64& rng) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_tuple(n1, n2, k);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    const HypergeometricDistribution dist(n1, n2, k);
    Entry entry{dist.support_min(), AliasTable(dist.PmfVector())};
    it = tables_.emplace(key, std::move(entry)).first;
  }
  return it->second.support_min + it->second.table.Sample(rng);
}

size_t AliasCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

uint64_t SampleHypergeometricSplit(uint64_t n1, uint64_t n2, uint64_t k,
                                   Pcg64& rng, AliasCache* cache) {
  if (cache != nullptr) return cache->Sample(n1, n2, k, rng);
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

  const uint64_t l = SampleHypergeometricSplit(
      s1.parent_size(), s2.parent_size(), k, rng, options.alias_cache);
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

namespace {

Result<PartitionSample> MergeRange(
    const std::vector<const PartitionSample*>& samples, size_t begin,
    size_t end, const MergeOptions& options, Pcg64& rng) {
  SAMPWH_DCHECK(end > begin);
  if (end - begin == 1) return *samples[begin];
  const size_t mid = begin + (end - begin) / 2;
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample left,
                          MergeRange(samples, begin, mid, options, rng));
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample right,
                          MergeRange(samples, mid, end, options, rng));
  return MergeSamples(left, right, options, rng);
}

}  // namespace

Result<PartitionSample> MergeAll(
    const std::vector<const PartitionSample*>& samples,
    const MergeOptions& options, Pcg64& rng, MergeStrategy strategy) {
  if (samples.empty()) {
    return Status::InvalidArgument("MergeAll of zero samples");
  }
  if (samples.size() == 1) return *samples[0];
  if (strategy == MergeStrategy::kBalancedTree) {
    return MergeRange(samples, 0, samples.size(), options, rng);
  }
  PartitionSample acc = *samples[0];
  for (size_t i = 1; i < samples.size(); ++i) {
    SAMPWH_ASSIGN_OR_RETURN(acc,
                            MergeSamples(acc, *samples[i], options, rng));
  }
  return acc;
}

}  // namespace sampwh
