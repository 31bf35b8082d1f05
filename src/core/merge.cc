#include "src/core/merge.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/core/hybrid_bernoulli.h"
#include "src/core/hybrid_reservoir.h"
#include "src/core/purge.h"
#include "src/core/qbound.h"
#include "src/util/distributions.h"
#include "src/util/logging.h"

namespace sampwh {

namespace {

// Streams every value of an exhaustive sample's histogram into `sampler`,
// expanded in chunks of at most kReplayChunk values and fed through
// AddBatch, whose skips jump over excluded values and whose draws are the
// scalar Add loop's, in the same order. Values are fed in sorted order;
// uniformity does not depend on the order because inclusion decisions are
// independent of element identity.
constexpr size_t kReplayChunk = 4096;

template <typename Sampler>
void StreamHistogramInto(const CompactHistogram& hist, Sampler* sampler) {
  std::vector<Value> chunk;
  chunk.reserve(std::min<uint64_t>(hist.total_count(), kReplayChunk));
  for (const auto& [v, n] : hist.entries()) {
    for (uint64_t left = n; left > 0;) {
      const uint64_t take =
          std::min<uint64_t>(left, kReplayChunk - chunk.size());
      chunk.insert(chunk.end(), take, v);
      left -= take;
      if (chunk.size() == kReplayChunk) {
        sampler->AddBatch(chunk);
        chunk.clear();
      }
    }
  }
  sampler->AddBatch(chunk);
}

bool IsReservoir(const PartitionSample& s) {
  return s.phase() == SamplePhase::kReservoir;
}

bool IsExhaustive(const PartitionSample& s) {
  return s.phase() == SamplePhase::kExhaustive;
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

  // Fig. 6 lines 1-4: at least one sample is exhaustive — replay its values
  // through Algorithm HB resumed from the other sample. When both are
  // exhaustive, stream the SMALLER one: a left fold over exhaustive
  // partitions then costs O(total data) instead of O(partitions * total).
  if (IsExhaustive(s1) || IsExhaustive(s2)) {
    const bool stream_s1 =
        IsExhaustive(s1) &&
        (!IsExhaustive(s2) || s1.size() <= s2.size());
    const PartitionSample& streamed = stream_s1 ? s1 : s2;
    const PartitionSample& base = stream_s1 ? s2 : s1;
    HybridBernoulliSampler::Options hb_options;
    hb_options.footprint_bound_bytes = options.footprint_bound_bytes;
    hb_options.expected_population_size =
        s1.parent_size() + s2.parent_size();
    hb_options.exceedance_probability = options.exceedance_probability;
    hb_options.use_exact_rate = options.use_exact_rate;
    SAMPWH_ASSIGN_OR_RETURN(
        HybridBernoulliSampler sampler,
        HybridBernoulliSampler::Resume(base, hb_options, rng.Fork(0x4862)));
    StreamHistogramInto(streamed.histogram(), &sampler);
    return sampler.Finalize();
  }

  // Fig. 6 lines 5-7: a reservoir sample is involved.
  if (IsReservoir(s1) || IsReservoir(s2)) {
    return HRMerge(s1, s2, options, rng);
  }

  // Fig. 6 lines 8-16: both are Bernoulli samples.
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

  // Fig. 8 lines 1-4: at least one sample is exhaustive — replay its values
  // through Algorithm HR resumed from the other sample (the smaller side
  // when both are exhaustive; see the HBMerge note).
  if (IsExhaustive(s1) || IsExhaustive(s2)) {
    const bool stream_s1 =
        IsExhaustive(s1) &&
        (!IsExhaustive(s2) || s1.size() <= s2.size());
    const PartitionSample& streamed = stream_s1 ? s1 : s2;
    const PartitionSample& base = stream_s1 ? s2 : s1;
    HybridReservoirSampler::Options hr_options;
    hr_options.footprint_bound_bytes = options.footprint_bound_bytes;
    SAMPWH_ASSIGN_OR_RETURN(
        HybridReservoirSampler sampler,
        HybridReservoirSampler::Resume(base, hr_options, rng.Fork(0x4852)));
    StreamHistogramInto(streamed.histogram(), &sampler);
    return sampler.Finalize();
  }

  // Fig. 8 lines 5-12. Bernoulli inputs are admissible: conditioned on its
  // size, a Bernoulli sample is a simple random sample (§3.2).
  const uint64_t merged_parent = s1.parent_size() + s2.parent_size();
  uint64_t k = std::min(s1.size(), s2.size());
  k = std::min(k, n_f);  // honor a tighter merged bound
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
  if (IsReservoir(s1) || IsReservoir(s2)) {
    return HRMerge(s1, s2, options, rng);
  }
  return HBMerge(s1, s2, options, rng);
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
