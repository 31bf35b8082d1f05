#include "src/core/purge.h"

#include <utility>

#include "src/core/vitter.h"
#include "src/util/distributions.h"
#include "src/util/fenwick_tree.h"
#include "src/util/logging.h"

namespace sampwh {

namespace {

using Entries = std::vector<CompactHistogram::Entry>;

// The implicit expanded stream of purgeReservoir: every source's entries in
// ascending value order, sources one after another.
Entries StreamEntries(const std::vector<const CompactHistogram*>& sources) {
  Entries entries;
  for (const CompactHistogram* source : sources) {
    entries.insert(entries.end(), source->entries().begin(),
                   source->entries().end());
  }
  return entries;
}

// The histogram holding count_at(i) copies of stream entry i's value. A
// value held by several sources appears at several stream indices, so each
// source's slice is built by ascending appends and the slices are joined,
// which keeps the cost linear in the entries.
template <typename CountAt>
CompactHistogram CollectCounts(
    const std::vector<const CompactHistogram*>& sources,
    const Entries& entries, CountAt count_at) {
  CompactHistogram result;
  size_t i = 0;
  for (const CompactHistogram* source : sources) {
    CompactHistogram slice;
    for (const size_t end = i + source->distinct_count(); i < end; ++i) {
      const uint64_t n = count_at(i);
      if (n > 0) slice.Insert(entries[i].first, n);
    }
    result.Join(slice);
  }
  return result;
}

}  // namespace

void PurgeBernoulli(CompactHistogram* sample, double q, Pcg64& rng) {
  SAMPWH_CHECK(q >= 0.0 && q <= 1.0);
  if (q >= 1.0) return;
  CompactHistogram thinned;
  // One binomial draw per entry, in ascending value order: the iteration
  // order is part of the RNG stream, so it must be a function of the
  // histogram's contents alone — a histogram rebuilt from its serialized
  // form purges exactly like the original.
  for (const auto& [v, n] : sample->entries()) {
    const uint64_t kept = SampleBinomial(rng, n, q);
    if (kept > 0) thinned.Insert(v, kept);
  }
  *sample = std::move(thinned);
}

CompactHistogram PurgeReservoirStreamed(
    const std::vector<const CompactHistogram*>& sources, uint64_t M,
    Pcg64& rng) {
  if (M == 0) return CompactHistogram();

  const Entries entries = StreamEntries(sources);

  FenwickTree new_counts(entries.size());
  VitterSkip skip(M);
  uint64_t b = 0;  // elements of the implicit expanded stream seen so far
  uint64_t L = 0;  // current reservoir occupancy
  uint64_t j = 1;  // 1-based stream index of the next insertion

  for (size_t i = 0; i < entries.size(); ++i) {
    b += entries[i].second;
    while (j <= b) {
      if (L == M) {
        // Evict a uniformly random victim: a random position in [1, M]
        // mapped through the prefix sums of the new counts.
        const uint64_t target = rng.UniformInt(M) + 1;
        const size_t victim = new_counts.FindByPrefixSum(target);
        new_counts.Add(victim, -1);
        --L;
      }
      new_counts.Add(i, +1);
      ++L;
      j = (j < M) ? j + 1 : skip.NextInsertionIndex(rng, j);
    }
  }

  return CollectCounts(sources, entries,
                       [&](size_t i) { return new_counts.Get(i); });
}

void PurgeReservoir(CompactHistogram* sample, uint64_t M, Pcg64& rng) {
  if (sample->total_count() <= M) return;
  *sample = PurgeReservoirStreamed({sample}, M, rng);
}

CompactHistogram PurgeReservoirStreamedLinearScan(
    const std::vector<const CompactHistogram*>& sources, uint64_t M,
    Pcg64& rng) {
  if (M == 0) return CompactHistogram();

  const Entries entries = StreamEntries(sources);

  std::vector<uint64_t> new_counts(entries.size(), 0);
  VitterSkip skip(M);
  uint64_t b = 0;
  uint64_t L = 0;
  uint64_t j = 1;

  for (size_t i = 0; i < entries.size(); ++i) {
    b += entries[i].second;
    while (j <= b) {
      if (L == M) {
        // Fig. 4 lines 8-9 verbatim: find the l with
        // sum_{gamma < l} n_gamma < v <= sum_{gamma <= l} n_gamma.
        uint64_t v = rng.UniformInt(M) + 1;
        size_t victim = 0;
        while (v > new_counts[victim]) {
          v -= new_counts[victim];
          ++victim;
        }
        --new_counts[victim];
        --L;
      }
      ++new_counts[i];
      ++L;
      j = (j < M) ? j + 1 : skip.NextInsertionIndex(rng, j);
    }
  }

  return CollectCounts(sources, entries,
                       [&](size_t i) { return new_counts[i]; });
}

}  // namespace sampwh
