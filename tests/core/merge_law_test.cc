// Exact laws of the merges with an exhaustive side. Each test enumerates
// every pair of small inputs over the values 0..2, computes the law of the
// merged sample's kept counts (and phase), and checks seeded runs of the
// merge against it by chi-square (tests/core/law_check.h).
//
//  * Two exhaustive samples whose join fits within F merge to that join,
//    exhaustive, with no draw (HBMerge and HRMerge alike).
//  * HBMerge treats an exhaustive side as a Bern(1) sample: each side is
//    thinned to the merged rate q and the two are joined; a join that
//    breaks F is cut to a uniform n_F-subset (a reservoir sample).
//  * HRMerge draws the left share L ~ Hypergeometric(|D1|, |D2|, k), with
//    k = n_F bounded by the size of each non-exhaustive side, and joins a
//    uniform L-subset of one side with a uniform (k - L)-subset of the
//    other. HBMerge hands it every input with a reservoir side.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/merge.h"
#include "src/core/qbound.h"
#include "src/core/sample.h"
#include "src/util/random.h"
#include "tests/core/law_check.h"

namespace sampwh {
namespace {

using law::Choose;
using law::ExactLaw;
using law::FromCounts;
using law::KeyOf;
using law::LawCheck;
using law::RunsFor;

using Counts = std::vector<uint64_t>;

// The key bit that marks a reservoir output; Bernoulli and exhaustive
// outputs carry their kept counts alone.
constexpr uint64_t kReservoirKey = uint64_t{1} << 60;
// A key no law holds: a merge whose output breaks a sample invariant.
constexpr uint64_t kBadOutput = ~uint64_t{0};

// F = 24 bytes: n_F = 3, and a join of all three values breaks F as soon
// as one of them is duplicated.
constexpr uint64_t kBound = 24;
constexpr uint64_t kNf = 3;
constexpr double kExceedance = 0.3;

uint64_t Total(const Counts& c) {
  uint64_t total = 0;
  for (const uint64_t n : c) total += n;
  return total;
}

Counts Sum(const Counts& a, const Counts& b) {
  Counts out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

uint64_t FootprintOf(const Counts& c) {
  uint64_t footprint = 0;
  for (const uint64_t n : c) {
    if (n > 0) footprint += EntryFootprintBytes(n);
  }
  return footprint;
}

// Every count vector over the values 0..2 with counts of at most 2 and a
// total in [min_total, 3].
std::vector<Counts> SmallBags(uint64_t min_total) {
  std::vector<Counts> bags;
  for (uint64_t a = 0; a <= 2; ++a) {
    for (uint64_t b = 0; b <= 2; ++b) {
      for (uint64_t c = 0; c <= 2; ++c) {
        const Counts bag = {a, b, c};
        if (Total(bag) >= min_total && Total(bag) <= 3) bags.push_back(bag);
      }
    }
  }
  return bags;
}

double BinomialPmf(uint64_t n, uint64_t k, double q) {
  return static_cast<double>(Choose(n, k)) * std::pow(q, k) *
         std::pow(1.0 - q, n - k);
}

// The output key of `merged`, or kBadOutput if it does not cover
// `parent` elements, breaks kBound or fails validation.
uint64_t OutputKey(const Result<PartitionSample>& merged, uint64_t parent) {
  if (!merged.ok()) return kBadOutput;
  const PartitionSample& s = merged.value();
  if (s.parent_size() != parent || s.footprint_bytes() > kBound ||
      !s.Validate().ok()) {
    return kBadOutput;
  }
  return KeyOf(s.histogram()) |
         (s.phase() == SamplePhase::kReservoir ? kReservoirKey : 0);
}

// Each copy of c1 kept with probability r1 and each of c2 with r2, the
// kept copies joined; a join whose footprint breaks kBound is replaced by
// a uniform kNf-subset of it, keyed as a reservoir output.
std::map<uint64_t, double> ThinJoinCutLaw(const Counts& c1, double r1,
                                          const Counts& c2, double r2) {
  // Per value, the law of its joined kept count.
  std::vector<std::vector<double>> per_value(c1.size());
  for (size_t v = 0; v < c1.size(); ++v) {
    per_value[v].assign(c1[v] + c2[v] + 1, 0.0);
    for (uint64_t k1 = 0; k1 <= c1[v]; ++k1) {
      for (uint64_t k2 = 0; k2 <= c2[v]; ++k2) {
        per_value[v][k1 + k2] +=
            BinomialPmf(c1[v], k1, r1) * BinomialPmf(c2[v], k2, r2);
      }
    }
  }
  const Counts joined = Sum(c1, c2);
  std::map<uint64_t, double> law;
  Counts kept(joined.size(), 0);
  for (;;) {
    double p = 1.0;
    for (size_t v = 0; v < kept.size(); ++v) p *= per_value[v][kept[v]];
    if (p > 0.0) {
      if (FootprintOf(kept) <= kBound) {
        law[KeyOf(FromCounts(kept))] += p;
      } else {
        for (const auto& [key, pc] : ExactLaw(kept, kNf)) {
          law[key | kReservoirKey] += p * pc;
        }
      }
    }
    size_t i = 0;
    while (i < kept.size() && kept[i] == joined[i]) kept[i++] = 0;
    if (i == kept.size()) break;
    ++kept[i];
  }
  return law;
}

// L ~ Hypergeometric(n1, n2, k) copies from c1 (a sample of n1 elements)
// and k - L from c2 (of n2), each a uniform subset of its side, joined and
// keyed as a reservoir output.
std::map<uint64_t, double> SplitLaw(const Counts& c1, uint64_t n1,
                                    const Counts& c2, uint64_t n2,
                                    uint64_t k) {
  std::map<uint64_t, double> law;
  const double all = static_cast<double>(Choose(n1 + n2, k));
  for (uint64_t l = 0; l <= k; ++l) {
    const double pl = static_cast<double>(Choose(n1, l)) *
                      static_cast<double>(Choose(n2, k - l)) / all;
    if (pl == 0.0) continue;
    for (const auto& [k1, p1] : ExactLaw(c1, l)) {
      for (const auto& [k2, p2] : ExactLaw(c2, k - l)) {
        law[(k1 + k2) | kReservoirKey] += pl * p1 * p2;  // no carries
      }
    }
  }
  return law;
}

PartitionSample Exhaustive(const Counts& c) {
  return PartitionSample::MakeExhaustive(FromCounts(c), Total(c), 0);
}

MergeOptions Options(uint64_t bound) {
  MergeOptions options;
  options.footprint_bound_bytes = bound;
  options.exceedance_probability = kExceedance;
  return options;
}

TEST(MergeLawTest, ExhaustiveJoinThatFitsIsTheJoinWithoutADraw) {
  const MergeOptions options = Options(kBound);
  uint64_t seed = 0;
  uint64_t cases = 0;
  for (const Counts& c1 : SmallBags(0)) {
    for (const Counts& c2 : SmallBags(0)) {
      if (FootprintOf(Sum(c1, c2)) > kBound) continue;
      ++cases;
      SCOPED_TRACE(testing::Message() << "c1=" << KeyOf(FromCounts(c1))
                                      << " c2=" << KeyOf(FromCounts(c2)));
      const PartitionSample s1 = Exhaustive(c1);
      const PartitionSample s2 = Exhaustive(c2);
      ++seed;
      for (const bool hr : {false, true}) {
        Pcg64 rng(seed, 1);
        const auto merged = hr ? HRMerge(s1, s2, options, rng)
                               : HBMerge(s1, s2, options, rng);
        ASSERT_EQ(OutputKey(merged, Total(c1) + Total(c2)),
                  KeyOf(FromCounts(Sum(c1, c2))));
        EXPECT_EQ(merged.value().phase(), SamplePhase::kExhaustive);
        EXPECT_EQ(merged.value().footprint_bound_bytes(), kBound);
        EXPECT_EQ(rng.NextUint64(), Pcg64(seed, 1).NextUint64());
      }
    }
  }
  EXPECT_GE(cases, 100u);
}

TEST(MergeLawTest, HbMergeThinsOverflowingExhaustiveJoinToMergedRate) {
  const MergeOptions options = Options(kBound);
  LawCheck check;
  uint64_t seed = 0;
  uint64_t cases = 0;
  for (const Counts& c1 : SmallBags(1)) {
    for (const Counts& c2 : SmallBags(1)) {
      if (FootprintOf(Sum(c1, c2)) <= kBound) continue;
      ++cases;
      SCOPED_TRACE(testing::Message() << "c1=" << KeyOf(FromCounts(c1))
                                      << " c2=" << KeyOf(FromCounts(c2)));
      const uint64_t parent = Total(c1) + Total(c2);
      const double q = ApproxBernoulliRate(parent, kExceedance, kNf);
      const std::map<uint64_t, double> law = ThinJoinCutLaw(c1, q, c2, q);
      const PartitionSample s1 = Exhaustive(c1);
      const PartitionSample s2 = Exhaustive(c2);
      Pcg64 rng(++seed, 2);
      check.Check(law, RunsFor(law), [&] {
        const auto merged = HBMerge(s1, s2, options, rng);
        if (merged.ok() && merged.value().phase() == SamplePhase::kBernoulli &&
            merged.value().sampling_rate() != q) {
          return kBadOutput;
        }
        return OutputKey(merged, parent);
      });
      if (testing::Test::HasFailure()) return;
    }
  }
  check.ExpectPooledFit();
  EXPECT_GE(check.runs(), 100000u);
  EXPECT_GE(cases, 50u);
}

TEST(MergeLawTest, HbMergeThinsExhaustiveAndBernoulliSidesToMergedRate) {
  // The Bernoulli side is a fixed Bern(q_b) sample of a partition three
  // elements larger than it, with q_b between the merged rate q and 1, so
  // it is thinned by q / q_b and the exhaustive side by q.
  const MergeOptions options = Options(kBound);
  LawCheck check;
  uint64_t seed = 0;
  for (const Counts& c1 : SmallBags(1)) {
    for (const Counts& c2 : SmallBags(0)) {
      SCOPED_TRACE(testing::Message() << "c1=" << KeyOf(FromCounts(c1))
                                      << " c2=" << KeyOf(FromCounts(c2)));
      const uint64_t n2 = Total(c2) + 3;
      const uint64_t parent = Total(c1) + n2;
      const double q = ApproxBernoulliRate(parent, kExceedance, kNf);
      const double q_b = (1.0 + q) / 2;
      const std::map<uint64_t, double> law =
          ThinJoinCutLaw(c1, q, c2, q / q_b);
      const PartitionSample exhaustive = Exhaustive(c1);
      const PartitionSample bernoulli =
          PartitionSample::MakeBernoulli(FromCounts(c2), n2, q_b, 0);
      // Alternate the sides' order.
      const bool exhaustive_first = seed % 2 == 0;
      Pcg64 rng(++seed, 3);
      check.Check(law, RunsFor(law), [&] {
        const auto merged =
            exhaustive_first ? HBMerge(exhaustive, bernoulli, options, rng)
                             : HBMerge(bernoulli, exhaustive, options, rng);
        if (merged.ok() && merged.value().phase() == SamplePhase::kBernoulli &&
            merged.value().sampling_rate() != q) {
          return kBadOutput;
        }
        return OutputKey(merged, parent);
      });
      if (testing::Test::HasFailure()) return;
    }
  }
  check.ExpectPooledFit();
  EXPECT_GE(check.runs(), 100000u);
}

TEST(MergeLawTest, HrMergeOfOverflowingExhaustiveJoinIsUniformNfSubset) {
  const MergeOptions options = Options(kBound);
  LawCheck check;
  uint64_t seed = 0;
  for (const Counts& c1 : SmallBags(1)) {
    for (const Counts& c2 : SmallBags(1)) {
      const Counts joined = Sum(c1, c2);
      if (FootprintOf(joined) <= kBound) continue;
      SCOPED_TRACE(testing::Message() << "c1=" << KeyOf(FromCounts(c1))
                                      << " c2=" << KeyOf(FromCounts(c2)));
      std::map<uint64_t, double> law;
      for (const auto& [key, p] : ExactLaw(joined, kNf)) {
        law[key | kReservoirKey] = p;
      }
      const PartitionSample s1 = Exhaustive(c1);
      const PartitionSample s2 = Exhaustive(c2);
      // The laws here are small; twenty times the minimum runs gives the
      // pooled check its power.
      Pcg64 rng(++seed, 4);
      check.Check(law, 20 * RunsFor(law), [&] {
        return OutputKey(HRMerge(s1, s2, options, rng), Total(joined));
      });
      if (testing::Test::HasFailure()) return;
    }
  }
  check.ExpectPooledFit();
  EXPECT_GE(check.runs(), 100000u);
}

TEST(MergeLawTest, ExhaustiveBesideSimpleRandomSampleSplitsHypergeometrically) {
  // The other side is a fixed sample of a partition two elements larger
  // than it: a reservoir sample through HRMerge in either order and
  // through HBMerge's hand-off, or a Bernoulli sample (a simple random
  // sample given its size) through HRMerge. k = min(n_F, its size).
  const MergeOptions options = Options(kBound);
  LawCheck check;
  uint64_t seed = 0;
  for (const Counts& c1 : SmallBags(1)) {
    for (const Counts& c2 : SmallBags(0)) {
      const uint64_t n1 = Total(c1);
      const uint64_t n2 = Total(c2) + 2;
      const uint64_t k = std::min(kNf, Total(c2));
      const PartitionSample exhaustive = Exhaustive(c1);
      const PartitionSample reservoir =
          PartitionSample::MakeReservoir(FromCounts(c2), n2, 0);
      const PartitionSample bernoulli =
          PartitionSample::MakeBernoulli(FromCounts(c2), n2, 0.5, 0);
      for (int variant = 0; variant < 4; ++variant) {
        SCOPED_TRACE(testing::Message()
                     << "c1=" << KeyOf(FromCounts(c1))
                     << " c2=" << KeyOf(FromCounts(c2))
                     << " variant=" << variant);
        const bool swapped = variant == 1;
        const std::map<uint64_t, double> law =
            swapped ? SplitLaw(c2, n2, c1, n1, k) : SplitLaw(c1, n1, c2, n2, k);
        Pcg64 rng(++seed, 5);
        check.Check(law, RunsFor(law), [&]() -> uint64_t {
          switch (variant) {
            case 0:
              return OutputKey(HRMerge(exhaustive, reservoir, options, rng),
                               n1 + n2);
            case 1:
              return OutputKey(HRMerge(reservoir, exhaustive, options, rng),
                               n1 + n2);
            case 2:
              return OutputKey(HBMerge(exhaustive, reservoir, options, rng),
                               n1 + n2);
            default:
              return OutputKey(HRMerge(exhaustive, bernoulli, options, rng),
                               n1 + n2);
          }
        });
        if (testing::Test::HasFailure()) return;
      }
    }
  }
  check.ExpectPooledFit();
  EXPECT_GE(check.runs(), 100000u);
}

}  // namespace
}  // namespace sampwh
