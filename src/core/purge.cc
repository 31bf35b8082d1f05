#include "src/core/purge.h"

#include <limits>
#include <span>
#include <utility>

#include "src/core/vitter.h"
#include "src/util/distributions.h"
#include "src/util/fenwick_tree.h"
#include "src/util/logging.h"

namespace sampwh {

namespace {

using Entry = CompactHistogram::Entry;
using Entries = std::vector<Entry>;

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

// The histogram holding counts[i] copies of stream entry i's value. A
// value held by several sources appears at several stream indices, so each
// source's slice is built by ascending appends and the slices are joined,
// which keeps the cost linear in the entries.
template <typename Count>
CompactHistogram CollectCounts(
    const std::vector<const CompactHistogram*>& sources,
    std::span<const Entry> stream, const std::vector<Count>& counts) {
  CompactHistogram result;
  size_t i = 0;
  for (const CompactHistogram* source : sources) {
    CompactHistogram slice;
    for (const size_t end = i + source->distinct_count(); i < end; ++i) {
      if (counts[i] > 0) slice.Insert(stream[i].first, counts[i]);
    }
    result.Join(slice);
  }
  return result;
}

// CollectCounts for a stream that is one source's entries, whose values
// are therefore distinct and ascending: one pass that steps its output by
// 0 or 1 instead of branching on every count.
template <typename Count>
CompactHistogram CollectSingleSourceCounts(std::span<const Entry> stream,
                                           const std::vector<Count>& counts) {
  Entries kept(stream.size());
  size_t k = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    kept[k] = Entry{stream[i].first, counts[i]};
    k += counts[i] != 0;
  }
  kept.resize(k);
  return CompactHistogram::FromSortedEntries(std::move(kept));
}

// The reservoir counts of Fig. 4 run over `stream`, for 1 <= M <= the
// stream's total: counts[i] copies of stream entry i's value survive. The
// RNG draws are the Fig. 4 loop's, in its order:
//
//  * The first M elements all enter and draw nothing, so their counts are
//    written directly and the tree is built once, in O(n). The M-th
//    insertion then draws its skip, where the loop draws it.
//  * Every later insertion draws a victim position in [1, M], then its
//    skip. The entry being inserted into is the last nonzero one, so its
//    count is held outside the tree: a position past the tree's total
//    names that entry, whose eviction and insertion cancel; any other
//    position is found, and taken, in one branch-free descent. The held
//    count enters the tree once, when the stream moves past its entry.
template <typename Weight>
std::vector<Weight> ReservoirCounts(std::span<const Entry> stream, uint64_t M,
                                    Pcg64& rng) {
  std::vector<Weight> counts(stream.size(), 0);
  uint64_t b = 0;  // elements of the implicit expanded stream seen so far
  size_t i = 0;
  for (; b + stream[i].second < M; ++i) {
    counts[i] = static_cast<Weight>(stream[i].second);
    b += stream[i].second;
  }
  // Entry i holds the M-th element.
  uint64_t held = M - b;  // reservoir copies of entry i
  b += stream[i].second;
  BasicFenwickTree<Weight> tree(counts);
  VitterSkip skip(M);
  uint64_t j = skip.NextInsertionIndex(rng, M);  // next insertion index
  for (;;) {
    while (j <= b) {
      const uint64_t target = rng.UniformInt(M) + 1;
      if (target <= M - held) {
        tree.TakeOneByPrefixSum(static_cast<Weight>(target));
        ++held;
      }
      j = skip.NextInsertionIndex(rng, j);
    }
    if (held > 0) tree.Add(i, static_cast<int64_t>(held));
    if (++i == stream.size()) break;
    held = 0;
    b += stream[i].second;
  }
  return tree.Weights();
}

// purgeReservoir over the stream of `sources` (1 <= M <= its total), with
// counts of type Weight.
template <typename Weight>
CompactHistogram PurgeWithWidth(
    const std::vector<const CompactHistogram*>& sources, uint64_t M,
    Pcg64& rng) {
  if (sources.size() == 1) {
    const std::span<const Entry> stream = sources.front()->entries();
    return CollectSingleSourceCounts(stream,
                                     ReservoirCounts<Weight>(stream, M, rng));
  }
  const Entries stream = StreamEntries(sources);
  return CollectCounts(sources, stream,
                       ReservoirCounts<Weight>(stream, M, rng));
}

}  // namespace

void PurgeBernoulli(CompactHistogram* sample, double q, Pcg64& rng) {
  SAMPWH_CHECK(q >= 0.0 && q <= 1.0);
  if (q >= 1.0) return;
  *sample = BernoulliSubsample(*sample, q, rng);
}

CompactHistogram BernoulliSubsample(const CompactHistogram& sample, double q,
                                    Pcg64& rng) {
  SAMPWH_CHECK(q >= 0.0 && q <= 1.0);
  if (q >= 1.0) return sample;
  CompactHistogram thinned;
  // One binomial draw per entry, in ascending value order: the iteration
  // order is part of the RNG stream, so it must be a function of the
  // histogram's contents alone — a histogram rebuilt from its serialized
  // form purges exactly like the original.
  for (const auto& [v, n] : sample.entries()) {
    const uint64_t kept = SampleBinomial(rng, n, q);
    if (kept > 0) thinned.Insert(v, kept);
  }
  return thinned;
}

CompactHistogram PurgeReservoirStreamed(
    const std::vector<const CompactHistogram*>& sources, uint64_t M,
    Pcg64& rng) {
  if (M == 0) return CompactHistogram();
  uint64_t total = 0;
  for (const CompactHistogram* source : sources) {
    total += source->total_count();
  }
  if (total < M) {
    // Every element enters and the reservoir never fills: Fig. 4 draws
    // nothing.
    CompactHistogram all;
    for (const CompactHistogram* source : sources) all.Join(*source);
    return all;
  }

  // A reservoir count never exceeds M, so a 32-bit tree holds every count
  // whenever M does; it halves the bytes each descent touches.
  if (M <= std::numeric_limits<uint32_t>::max()) {
    return PurgeWithWidth<uint32_t>(sources, M, rng);
  }
  return PurgeWithWidth<uint64_t>(sources, M, rng);
}

void PurgeReservoir(CompactHistogram* sample, uint64_t M, Pcg64& rng) {
  if (sample->total_count() <= M) return;
  *sample = PurgeReservoirStreamed({sample}, M, rng);
}

CompactHistogram ReservoirSubsample(const CompactHistogram& sample,
                                    uint64_t M, Pcg64& rng) {
  if (sample.total_count() <= M) return sample;
  return PurgeReservoirStreamed({&sample}, M, rng);
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

  return CollectCounts(sources, entries, new_counts);
}

}  // namespace sampwh
