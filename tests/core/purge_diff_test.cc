// Tests of purgeReservoir: PurgeReservoirStreamed (the library's selection
// purge), JoinReservoirSubsamples (HRMerge's two-sided purge) and
// PurgeReservoirStreamedLinearScan (the paper's Fig. 4 loop as printed).
// The selection purge and Fig. 4 draw differently, so their outputs differ
// draw for draw; what they share is the law. A purge of a bag with counts
// c_1..c_d to M elements must keep k_i copies of entry i with probability
//
//   prod_i C(c_i, k_i) / C(c_1 + ... + c_d, M),
//
// the law of a uniform M-subset of the expanded bag.
//
//  * PurgeLawTest enumerates every bag of total <= 10 (every ordered
//    count vector over ascending values), every M and every output, and
//    checks the output frequencies of both purges against that law by
//    chi-square; it checks an entry above the per-copy limit against the
//    hypergeometric pmf, and the two-sided purge against the convolution
//    of its sides' laws.
//  * PurgeDiffTest checks the shape of every output: size min(M, total),
//    strictly ascending values, no count above its source's, a footprint
//    equal to its recount, and no draws when the sample already fits.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/compact_histogram.h"
#include "src/core/purge.h"
#include "src/stats/chi_square.h"
#include "src/util/random.h"
#include "tests/core/law_check.h"

namespace sampwh {
namespace {

using law::ExactLaw;
using law::FromCounts;
using law::KeyOf;
using law::LawCheck;
using law::RunsFor;

using PurgeFn = CompactHistogram (*)(const std::vector<const CompactHistogram*>&,
                                     uint64_t, Pcg64&);

uint64_t RecountFootprint(const CompactHistogram& h) {
  uint64_t footprint = 0;
  for (const auto& [v, n] : h.entries()) footprint += EntryFootprintBytes(n);
  return footprint;
}

// The shape every purge output must have: `total` elements in strictly
// ascending entries of nonzero counts, none above `source`'s count of its
// value, with totals and footprint equal to their recount.
void ExpectWellFormed(const CompactHistogram& out,
                      const CompactHistogram& source, uint64_t total) {
  ASSERT_EQ(out.total_count(), total);
  uint64_t sum = 0;
  for (size_t i = 0; i < out.entries().size(); ++i) {
    const auto& [v, n] = out.entries()[i];
    ASSERT_GE(n, 1u);
    if (i > 0) {
      ASSERT_LT(out.entries()[i - 1].first, v);
    }
    ASSERT_LE(n, source.CountOf(v)) << "value " << v;
    sum += n;
  }
  ASSERT_EQ(sum, total);
  ASSERT_EQ(out.footprint_bytes(), RecountFootprint(out));
}

// Runs the selection purge and the Fig. 4 oracle on `sources` with
// reservoir size `m` and checks both outputs' shape. When the union
// already fits, the selection purge must return it whole without a draw.
void ExpectValidPurges(const std::vector<CompactHistogram>& sources,
                       uint64_t m, uint64_t seed) {
  std::vector<const CompactHistogram*> ptrs;
  CompactHistogram all;
  for (const CompactHistogram& h : sources) {
    ptrs.push_back(&h);
    all.Join(h);
  }
  const uint64_t total = all.total_count();
  SCOPED_TRACE(testing::Message() << "sources=" << sources.size()
                                  << " total=" << total << " M=" << m
                                  << " seed=" << seed);
  Pcg64 rng(seed, 11);
  const CompactHistogram purged = PurgeReservoirStreamed(ptrs, m, rng);
  ExpectWellFormed(purged, all, std::min(m, total));
  if (m >= total) {
    ASSERT_EQ(purged.entries(), all.entries());
    ASSERT_EQ(rng.NextUint64(), Pcg64(seed, 11).NextUint64());
  }
  Pcg64 oracle_rng(seed, 11);
  ExpectWellFormed(PurgeReservoirStreamedLinearScan(ptrs, m, oracle_rng), all,
                   std::min(m, total));
}

// The reservoir sizes at and around the boundaries of the kernel: none,
// one, and one below, at and above the stream's total.
std::vector<uint64_t> BoundarySizes(uint64_t total) {
  std::vector<uint64_t> sizes = {0, 1, total, total + 1};
  if (total >= 1) sizes.push_back(total - 1);
  if (total >= 4) sizes.push_back(total / 2);
  return sizes;
}

// `distinct` ascending values spaced by `stride` from `base`, with counts
// drawn from [1, max_count].
CompactHistogram RandomHistogram(uint64_t distinct, uint64_t max_count,
                                 Value base, Value stride, Pcg64& rng) {
  CompactHistogram h;
  for (uint64_t i = 0; i < distinct; ++i) {
    h.Insert(base + static_cast<Value>(i) * stride,
             1 + rng.UniformInt(max_count));
  }
  return h;
}

// A histogram holding exactly `total` elements, split over entries whose
// counts mix singletons and pairs.
CompactHistogram HistogramWithTotal(uint64_t total, Pcg64& rng) {
  CompactHistogram h;
  Value v = -static_cast<Value>(rng.UniformInt(1000));
  for (uint64_t left = total; left > 0;) {
    const uint64_t n = rng.Bernoulli(0.5)
                           ? 1
                           : 1 + rng.UniformInt(std::min<uint64_t>(left, 9));
    const uint64_t take = std::min(n, left);
    h.Insert(v, take);
    v += 1 + static_cast<Value>(rng.UniformInt(5));
    left -= take;
  }
  return h;
}

// --- The law ----------------------------------------------------------------

// Every ordered count vector of every total 1..10 (the compositions of the
// total: bit b of `cuts` ends an entry after element b + 1), every M with
// 1 <= M < total.
void ExpectExactLawOnEveryBagUpToTen(PurgeFn purge, uint64_t stream) {
  LawCheck check;
  uint64_t seed = 0;
  for (uint64_t total = 1; total <= 10; ++total) {
    for (uint64_t cuts = 0; cuts < (uint64_t{1} << (total - 1)); ++cuts) {
      std::vector<uint64_t> counts = {1};
      for (uint64_t b = 0; b + 1 < total; ++b) {
        if (cuts >> b & 1) {
          counts.push_back(1);
        } else {
          ++counts.back();
        }
      }
      const CompactHistogram h = FromCounts(counts);
      for (uint64_t m = 1; m < total; ++m) {
        SCOPED_TRACE(testing::Message()
                     << "total=" << total << " cuts=" << cuts << " M=" << m);
        const std::map<uint64_t, double> law = ExactLaw(counts, m);
        Pcg64 rng(++seed, stream);
        check.Check(law, RunsFor(law),
                    [&] { return KeyOf(purge({&h}, m, rng)); });
        if (testing::Test::HasFailure()) return;
      }
    }
  }
  check.ExpectPooledFit();
  EXPECT_GE(check.runs(), 100000u);
}

TEST(PurgeLawTest, SelectionPurgeMatchesExactLawOnEveryBagUpToTen) {
  ExpectExactLawOnEveryBagUpToTen(&PurgeReservoirStreamed, 1);
}

TEST(PurgeLawTest, Fig4OracleMatchesExactLawOnEveryBagUpToTen) {
  ExpectExactLawOnEveryBagUpToTen(&PurgeReservoirStreamedLinearScan, 2);
}

TEST(PurgeLawTest, LargeEntryKeptCountIsHypergeometric) {
  // An entry of 1000 copies, far above the count at which the purge stops
  // deciding copies one by one, between runs of singletons and a pair, so
  // the selection reaches it in a random state and draws its kept count
  // from that state's hypergeometric law. Over the states, the kept count
  // must follow the marginal of a uniform 300-subset of the 1,200
  // elements: Hypergeometric(1000, 200, 300).
  CompactHistogram h;
  for (Value v = 0; v < 120; ++v) h.Insert(v, v == 60 ? 2 : 1);
  h.Insert(500, 1000);
  for (Value v = 1000; v < 1079; ++v) h.Insert(v);
  ASSERT_EQ(h.total_count(), 1200u);
  const uint64_t m = 300;
  const auto pmf = [](uint64_t l) {
    // C(1000, l) C(200, 300 - l) / C(1200, 300), in log space.
    const auto log_choose = [](double n, double k) {
      return std::lgamma(n + 1) - std::lgamma(k + 1) - std::lgamma(n - k + 1);
    };
    return std::exp(log_choose(1000, l) + log_choose(200, 300 - l) -
                    log_choose(1200, 300));
  };
  // Cells of at least 10 expected counts, built upward from the support's
  // minimum 100: the first cell also holds everything below it, the last
  // everything above.
  const int runs = 40000;
  std::vector<uint64_t> starts;  // cell i holds l in [starts[i], starts[i+1])
  std::vector<double> probabilities;
  double pending = 0.0;
  uint64_t start = 0;
  for (uint64_t l = 100; l <= 300; ++l) {
    pending += pmf(l);
    if (pending * runs >= 10) {
      starts.push_back(start);
      probabilities.push_back(pending);
      pending = 0.0;
      start = l + 1;
    }
  }
  probabilities.back() += pending;
  double covered = 0.0;
  for (const double p : probabilities) covered += p;
  ASSERT_NEAR(covered, 1.0, 1e-9);

  std::vector<uint64_t> observed(probabilities.size(), 0);
  Pcg64 rng(31);
  for (int run = 0; run < runs; ++run) {
    const uint64_t kept = ReservoirSubsample(h, m, rng).CountOf(500);
    const size_t cell =
        std::upper_bound(starts.begin(), starts.end(), kept) - starts.begin() -
        1;
    ++observed[cell];
  }
  const ChiSquareResult r = ChiSquareGoodnessOfFit(observed, probabilities);
  EXPECT_GT(r.p_value, 1e-4) << "chi2=" << r.statistic
                             << " df=" << r.degrees_of_freedom;
  EXPECT_GE(r.degrees_of_freedom, 10.0);
}

TEST(PurgeLawTest, JoinedSubsamplesMatchConvolvedLaw) {
  // Two bags over the values 0..4 sharing some of them, every pair of
  // sizes (m1, m2) including none and all of a side. The output is the
  // join of independent uniform subsets, so its law is the convolution of
  // the two sides' laws.
  Pcg64 gen(41);
  LawCheck check;
  uint64_t seed = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<uint64_t> c1(5), c2(5);
    uint64_t t1 = 0, t2 = 0;
    for (size_t v = 0; v < 5; ++v) {
      static constexpr uint64_t kCounts[] = {0, 0, 1, 1, 1, 2, 3};
      c1[v] = kCounts[gen.UniformInt(7)];
      c2[v] = kCounts[gen.UniformInt(7)];
      if (t1 + c1[v] > 6) c1[v] = 0;
      if (t2 + c2[v] > 6) c2[v] = 0;
      t1 += c1[v];
      t2 += c2[v];
    }
    const CompactHistogram h1 = FromCounts(c1);
    const CompactHistogram h2 = FromCounts(c2);
    for (uint64_t m1 = 0; m1 <= t1; ++m1) {
      for (uint64_t m2 = 0; m2 <= t2; ++m2) {
        SCOPED_TRACE(testing::Message() << "trial=" << trial << " m1=" << m1
                                        << " m2=" << m2);
        std::map<uint64_t, double> law;
        for (const auto& [k1, p1] : ExactLaw(c1, m1)) {
          for (const auto& [k2, p2] : ExactLaw(c2, m2)) {
            law[k1 + k2] += p1 * p2;  // no count exceeds 6: no carries
          }
        }
        Pcg64 rng(++seed, 3);
        check.Check(law, RunsFor(law), [&] {
          const CompactHistogram out =
              JoinReservoirSubsamples(h1, m1, h2, m2, rng);
          EXPECT_EQ(out.footprint_bytes(), RecountFootprint(out));
          return KeyOf(out);
        });
        if (testing::Test::HasFailure()) return;
      }
    }
  }
  check.ExpectPooledFit();
}

// --- The shape --------------------------------------------------------------

TEST(PurgeDiffTest, EveryTotalUpTo300) {
  Pcg64 gen(1);
  for (uint64_t total = 0; total <= 300; ++total) {
    const CompactHistogram h = HistogramWithTotal(total, gen);
    for (const uint64_t m : BoundarySizes(total)) {
      ExpectValidPurges({h}, m, total * 31 + m);
    }
  }
}

TEST(PurgeDiffTest, SizesAroundPowersOfTwo) {
  Pcg64 gen(2);
  for (uint64_t k = 0; k <= 12; ++k) {
    const uint64_t p = uint64_t{1} << k;
    for (const uint64_t distinct : {p - 1, p, p + 1}) {
      // All singletons, then mixed counts.
      for (const uint64_t max_count : {uint64_t{1}, uint64_t{3}}) {
        const CompactHistogram h =
            RandomHistogram(distinct, max_count, -7, 3, gen);
        for (const uint64_t m : BoundarySizes(h.total_count())) {
          ExpectValidPurges({h}, m, distinct * 7 + max_count + m);
        }
      }
    }
  }
}

TEST(PurgeDiffTest, MultiSourceWithSharedValues) {
  // A multi-source purge is the join of its sources and one selection,
  // draw for draw.
  Pcg64 gen(3);
  for (int trial = 0; trial < 60; ++trial) {
    const uint64_t num_sources = 2 + gen.UniformInt(3);
    std::vector<CompactHistogram> sources;
    std::vector<const CompactHistogram*> ptrs;
    CompactHistogram joined;
    for (uint64_t s = 0; s < num_sources; ++s) {
      // Overlapping value ranges: every source shares values with the
      // others, and some sources are empty.
      const uint64_t distinct = gen.UniformInt(trial < 10 ? 4 : 300);
      sources.push_back(RandomHistogram(
          distinct, 1 + gen.UniformInt(4),
          static_cast<Value>(gen.UniformInt(50)),
          1 + static_cast<Value>(gen.UniformInt(2)), gen));
      joined.Join(sources.back());
    }
    for (const CompactHistogram& h : sources) ptrs.push_back(&h);
    for (const uint64_t m : BoundarySizes(joined.total_count())) {
      ExpectValidPurges(sources, m, trial * 101 + m);
      Pcg64 rng(trial, m);
      Pcg64 single_rng(trial, m);
      ASSERT_EQ(PurgeReservoirStreamed(ptrs, m, rng).entries(),
                ReservoirSubsample(joined, m, single_rng).entries());
      ASSERT_EQ(rng.NextUint64(), single_rng.NextUint64());
    }
  }
}

TEST(PurgeDiffTest, CountsUpTo2To40) {
  // Huge counts with small reservoirs: every entry above the per-copy
  // limit takes the hypergeometric draw.
  Pcg64 gen(4);
  for (int trial = 0; trial < 20; ++trial) {
    CompactHistogram h;
    const uint64_t distinct = 1 + gen.UniformInt(40);
    for (uint64_t i = 0; i < distinct; ++i) {
      const int shift = static_cast<int>(gen.UniformInt(41));
      h.Insert(static_cast<Value>(i) * 1000 - 5000,
               (uint64_t{1} << shift) + gen.UniformInt(3));
    }
    for (const uint64_t m : std::vector<uint64_t>{0, 1, 2, 17, 64, 1000}) {
      ExpectValidPurges({h}, m, trial * 13 + m);
    }
  }
  // One entry of 2^40 and a few singletons around it.
  CompactHistogram h;
  h.Insert(-1, 1);
  h.Insert(0, uint64_t{1} << 40);
  h.Insert(1, 1);
  for (const uint64_t m : std::vector<uint64_t>{0, 1, 2, 3, 500}) {
    ExpectValidPurges({h}, m, 99 + m);
  }
}

TEST(PurgeDiffTest, ReservoirAbove32Bits) {
  // A reservoir of more than 2^32 elements. The Fig. 4 loop would insert
  // 2^32 elements one at a time, so this checks the selection alone: the
  // output is full, and at most the 4 copies of value 1 can displace copies
  // of value -1.
  CompactHistogram h;
  h.Insert(-1, (uint64_t{1} << 32) + 1);
  h.Insert(1, 4);
  const uint64_t m = (uint64_t{1} << 32) + 2;
  Pcg64 rng(8);
  const CompactHistogram purged = PurgeReservoirStreamed({&h}, m, rng);
  ASSERT_EQ(purged.total_count(), m);
  ASSERT_EQ(purged.distinct_count(), 2u);
  EXPECT_GE(purged.CountOf(-1), (uint64_t{1} << 32) - 3);
  EXPECT_GE(purged.CountOf(1), 1u);
  EXPECT_EQ(purged.footprint_bytes(), RecountFootprint(purged));
}

TEST(PurgeDiffTest, MergeSizedReservoirs) {
  // The shape of a merge node: two samples of about 4096 values, some
  // shared and a few with counts above the per-copy limit, each side cut
  // to its share of the merged size in one walk.
  Pcg64 gen(5);
  for (int trial = 0; trial < 12; ++trial) {
    CompactHistogram h1 = RandomHistogram(3500 + gen.UniformInt(600),
                                          trial % 2 == 0 ? 1 : 2, -100000,
                                          17, gen);
    const CompactHistogram h2 = RandomHistogram(
        3500 + gen.UniformInt(600), 2, -100000 + 17 * gen.UniformInt(8), 13,
        gen);
    if (trial % 3 == 0) h1.Insert(-100000 + 17 * 40, 5000);
    CompactHistogram joined = h1;
    joined.Join(h2);
    const uint64_t k = std::min(h1.total_count(), h2.total_count());
    for (const uint64_t m1 :
         {uint64_t{0}, k / 2 + gen.UniformInt(200), k}) {
      SCOPED_TRACE(testing::Message() << "trial=" << trial << " m1=" << m1);
      Pcg64 rng(500 + trial, m1);
      const CompactHistogram out =
          JoinReservoirSubsamples(h1, m1, h2, k - m1, rng);
      ExpectWellFormed(out, joined, k);
    }
    // Sides that fit are kept whole, and nothing is drawn.
    Pcg64 rng(600 + trial);
    EXPECT_EQ(JoinReservoirSubsamples(h1, h1.total_count() + 5, h2,
                                      h2.total_count(), rng),
              joined);
    EXPECT_EQ(rng.NextUint64(), Pcg64(600 + trial).NextUint64());
  }
}

TEST(PurgeDiffTest, InPlaceWrapperMatchesOracle) {
  // PurgeReservoir's reference is ReservoirSubsample: it leaves a sample
  // that already fits untouched and draws nothing; otherwise it is the
  // selection of the sample alone, draw for draw.
  Pcg64 gen(6);
  for (int trial = 0; trial < 40; ++trial) {
    const CompactHistogram original =
        RandomHistogram(1 + gen.UniformInt(200), 3, 0, 1, gen);
    const uint64_t total = original.total_count();
    for (const uint64_t m : BoundarySizes(total)) {
      CompactHistogram h = original;
      Pcg64 rng(trial, 5);
      Pcg64 oracle_rng(trial, 5);
      PurgeReservoir(&h, m, rng);
      const CompactHistogram expected =
          ReservoirSubsample(original, m, oracle_rng);
      ASSERT_EQ(h.entries(), expected.entries()) << trial << " " << m;
      ASSERT_EQ(h.footprint_bytes(), expected.footprint_bytes());
      if (m >= total) {
        ASSERT_EQ(h, original);
        ASSERT_EQ(rng.NextUint64(), Pcg64(trial, 5).NextUint64());
        continue;
      }
      ASSERT_EQ(rng.NextUint64(), oracle_rng.NextUint64());
    }
  }
}

}  // namespace
}  // namespace sampwh
