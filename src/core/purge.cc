#include "src/core/purge.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "src/core/vitter.h"
#include "src/util/distributions.h"
#include "src/util/logging.h"

namespace sampwh {

namespace {

using Entry = CompactHistogram::Entry;
using Entries = std::vector<Entry>;

// An entry holding more copies than this decides them with one
// hypergeometric draw instead of one keep decision per copy: near here one
// draw (about 0.2 µs) starts to cost less than the decisions it replaces.
constexpr uint64_t kMaxCopiesDecidedOneByOne = 48;

// Sequential selection (Knuth's Algorithm S) over an expanded bag walked in
// entry order: `need` of the `rest` elements not yet walked are still to be
// kept, and each element is kept with probability need/rest. Whatever the
// walk has kept so far, the elements still to be kept are a uniform
// need-subset of the rest, so the kept elements are a uniform subset of
// the bag.
struct Selection {
  uint64_t need;
  uint64_t rest;

  // Nothing is left to draw: every remaining element is dropped (need 0)
  // or kept (need == rest).
  bool decided() const { return need == 0 || need == rest; }

  // One keep decision for an entry of one copy, by an exact integer
  // compare.
  bool KeepOne(Pcg64& rng) {
    const bool keep = rng.UniformInt(rest) < need;
    need -= keep;
    --rest;
    return keep;
  }

  // The copies kept of an entry of `count` copies. Their number is
  // Hypergeometric(count, rest - count, need), drawn as such above
  // kMaxCopiesDecidedOneByOne copies; a decided selection draws nothing.
  uint64_t Keep(uint64_t count, Pcg64& rng) {
    uint64_t kept = 0;
    if (need == rest) {
      kept = count;
      need -= count;
    } else if (count > kMaxCopiesDecidedOneByOne) {
      kept = HypergeometricDistribution(count, rest - count, need).Sample(rng);
      need -= kept;
    } else {
      for (uint64_t c = 0; c < count && need > 0; ++c) {
        const bool keep = rng.UniformInt(rest - c) < need;
        kept += keep;
        need -= keep;
      }
    }
    rest -= count;
    return kept;
  }
};

// Runs `s` over `entries`, writing the kept (value, count) entries at
// `out`, and returns the end of what it wrote. Writes at most
// min(entries.size(), s.need) entries. A count-1 entry is written
// unconditionally and the output steps by its keep decision, because a
// decision near 1/2 is a branch the predictor cannot learn.
Entry* SelectRun(std::span<const Entry> entries, Selection& s, Pcg64& rng,
                 Entry* out) {
  // Local copies keep the generator and the state in registers.
  Pcg64 r = rng;
  Selection t = s;
  size_t i = 0;
  for (; i < entries.size() && !t.decided(); ++i) {
    const auto [v, n] = entries[i];
    const uint64_t kept = n == 1 ? t.KeepOne(r) : t.Keep(n, r);
    *out = Entry{v, kept};
    out += kept != 0;
  }
  rng = r;
  s = t;
  if (s.need > 0) {  // need == rest: every remaining element stays
    out = std::copy(entries.begin() + i, entries.end(), out);
    s.need = s.rest = 0;
  }
  return out;
}

// The implicit expanded stream of Fig. 4: every source's entries in
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
// source's slice is built by ascending appends and the slices are joined.
CompactHistogram CollectCounts(
    const std::vector<const CompactHistogram*>& sources,
    const Entries& stream, const std::vector<uint64_t>& counts) {
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
  if (q == 0.0) return CompactHistogram();  // Binomial(n, 0) draws nothing
  // One Binomial(n, q) draw per entry, in ascending value order: the
  // iteration order is part of the RNG stream, so it must be a function of
  // the histogram's contents alone — a histogram rebuilt from its
  // serialized form purges exactly like the original.
  //
  // For n = 1, SampleBinomial is CDF inversion at p = min(q, 1 - q): one
  // uniform u, kept iff u > pmf(0) = (1 - p)^1, and the result flipped
  // when q > 0.5. pmf(0) is computed here once, by the inversion's own
  // expressions, so each count-1 entry is one draw and one compare with
  // the same outcome (DESIGN.md, "Performance: Bernoulli thinning").
  const bool flip = q > 0.5;
  const double p = flip ? 1.0 - q : q;
  const double pmf0 = std::exp(1.0 * std::log(1.0 - p));
  Entries kept_entries(sample.distinct_count());
  Entry* out = kept_entries.data();
  Pcg64 r = rng;  // a local copy keeps the generator in registers
  for (const auto& [v, n] : sample.entries()) {
    const uint64_t kept =
        n == 1 ? (r.NextDouble() > pmf0) != flip : SampleBinomial(r, n, q);
    *out = Entry{v, kept};
    out += kept != 0;
  }
  rng = r;
  kept_entries.resize(out - kept_entries.data());
  return CompactHistogram::FromSortedEntries(std::move(kept_entries));
}

CompactHistogram PurgeReservoirStreamed(
    const std::vector<const CompactHistogram*>& sources, uint64_t M,
    Pcg64& rng) {
  if (sources.size() == 1) return ReservoirSubsample(*sources.front(), M, rng);
  CompactHistogram all;
  for (const CompactHistogram* source : sources) all.Join(*source);
  PurgeReservoir(&all, M, rng);
  return all;
}

void PurgeReservoir(CompactHistogram* sample, uint64_t M, Pcg64& rng) {
  if (sample->total_count() <= M) return;
  *sample = ReservoirSubsample(*sample, M, rng);
}

CompactHistogram ReservoirSubsample(const CompactHistogram& sample,
                                    uint64_t M, Pcg64& rng) {
  if (sample.total_count() <= M) return sample;
  Selection s{M, sample.total_count()};
  Entries kept(std::min<uint64_t>(sample.distinct_count(), M));
  kept.resize(SelectRun(sample.entries(), s, rng, kept.data()) - kept.data());
  return CompactHistogram::FromSortedEntries(std::move(kept));
}

CompactHistogram JoinReservoirSubsamples(const CompactHistogram& h1,
                                         uint64_t m1,
                                         const CompactHistogram& h2,
                                         uint64_t m2, Pcg64& rng) {
  const std::span<const Entry> a = h1.entries();
  const std::span<const Entry> b = h2.entries();
  Selection sa{std::min(m1, h1.total_count()), h1.total_count()};
  Selection sb{std::min(m2, h2.total_count()), h2.total_count()};
  Entries out(std::min(a.size() + b.size(), sa.need + sb.need));
  Entry* o = out.data();
  size_t i = 0;
  size_t j = 0;
  Pcg64 r = rng;  // a local copy keeps the generator in registers
  // Both selections in one walk of the two lists in merged value order.
  // Each side's decisions use fresh draws and that side's own state, so
  // interleaving them changes neither side's law. The walk ends when a
  // side runs out of entries or has nothing left to keep.
  while (i < a.size() && j < b.size() && sa.need > 0 && sb.need > 0) {
    const auto [va, na] = a[i];
    const auto [vb, nb] = b[j];
    if (na == 1 && nb == 1 && va != vb && !sa.decided() && !sb.decided()) {
      // A run of distinct singletons on both sides, each decided by one
      // draw. The side of the smaller value indexes the state, so there is
      // no branch on the values.
      uint64_t need[2] = {sa.need, sb.need};
      uint64_t rest[2] = {sa.rest, sb.rest};
      do {
        const Value x = a[i].first;
        const Value y = b[j].first;
        const size_t from_b = y < x;
        const uint64_t keep = r.UniformInt(rest[from_b]) < need[from_b];
        need[from_b] -= keep;
        --rest[from_b];
        *o = Entry{std::min(x, y), 1};
        o += keep;
        i += from_b ^ 1;
        j += from_b;
      } while (i < a.size() && j < b.size() && a[i].second == 1 &&
               b[j].second == 1 && a[i].first != b[j].first &&
               need[0] != 0 && need[0] != rest[0] && need[1] != 0 &&
               need[1] != rest[1]);
      sa = Selection{need[0], rest[0]};
      sb = Selection{need[1], rest[1]};
      continue;
    }
    uint64_t kept = 0;
    Value v = va;
    if (va <= vb) {
      kept += sa.Keep(na, r);
      ++i;
    }
    if (vb <= va) {
      kept += sb.Keep(nb, r);
      v = vb;
      ++j;
    }
    *o = Entry{v, kept};
    o += kept != 0;
  }
  // At most one side has elements left to keep; its tail comes last.
  o = SelectRun(a.subspan(i), sa, r, o);
  o = SelectRun(b.subspan(j), sb, r, o);
  rng = r;
  out.resize(o - out.data());
  return CompactHistogram::FromSortedEntries(std::move(out));
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
