// Differential test of purgeBernoulli (Fig. 3). BernoulliSubsample decides
// a count-1 entry by one uniform compared with a precomputed pmf(0) and
// writes through a raw output cursor; the oracle is the loop it replaced,
// one SampleBinomial(rng, n, q) per entry inserted into a fresh histogram.
// Both must give the same entries, total, footprint and generator state,
// on histograms that mix singletons, counts of 2 to 48 and counts far above
// that, at rates on both sides of the q > 0.5 symmetry flip. At q = 0 and
// q = 1 the oracle draws nothing, so neither may the purge.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/compact_histogram.h"
#include "src/core/purge.h"
#include "src/util/distributions.h"
#include "src/util/random.h"

namespace sampwh {
namespace {

CompactHistogram OracleBernoulliSubsample(const CompactHistogram& sample,
                                          double q, Pcg64& rng) {
  if (q >= 1.0) return sample;
  CompactHistogram thinned;
  for (const auto& [v, n] : sample.entries()) {
    const uint64_t kept = SampleBinomial(rng, n, q);
    if (kept > 0) thinned.Insert(v, kept);
  }
  return thinned;
}

// Up to `max_distinct` ascending values, each entry a singleton, a count in
// [2, 48] or a count in [49, 2^40), in proportions 3 : 2 : 1.
CompactHistogram MixedHistogram(uint64_t max_distinct, Pcg64& gen) {
  CompactHistogram h;
  const uint64_t distinct = gen.UniformInt(max_distinct + 1);
  Value v = -static_cast<Value>(gen.UniformInt(1 << 20));
  for (uint64_t i = 0; i < distinct; ++i) {
    const uint64_t kind = gen.UniformInt(6);
    uint64_t n = 1;
    if (kind >= 3 && kind < 5) n = 2 + gen.UniformInt(47);
    if (kind == 5) {
      n = 49 + gen.UniformInt(gen.Bernoulli(0.5) ? 1000 : uint64_t{1} << 40);
    }
    h.Insert(v, n);
    v += 1 + static_cast<Value>(gen.UniformInt(1000));
  }
  return h;
}

void ExpectSameAsOracle(const CompactHistogram& h, double q, uint64_t seed) {
  SCOPED_TRACE(testing::Message()
               << "q=" << q << " distinct=" << h.distinct_count()
               << " seed=" << seed);
  Pcg64 rng(seed, 5);
  Pcg64 oracle_rng(seed, 5);
  const CompactHistogram got = BernoulliSubsample(h, q, rng);
  const CompactHistogram want = OracleBernoulliSubsample(h, q, oracle_rng);
  ASSERT_EQ(got.entries(), want.entries());
  ASSERT_EQ(got.total_count(), want.total_count());
  ASSERT_EQ(got.footprint_bytes(), want.footprint_bytes());
  ASSERT_EQ(rng.NextUint64(), oracle_rng.NextUint64());
  // The in-place form is the same purge.
  CompactHistogram in_place = h;
  Pcg64 in_place_rng(seed, 5);
  PurgeBernoulli(&in_place, q, in_place_rng);
  ASSERT_EQ(in_place.entries(), want.entries());
}

std::vector<double> EdgeRates() {
  return {0.0,
          1e-300,
          1e-9,
          0.47,
          std::nextafter(0.5, 0.0),
          0.5,
          std::nextafter(0.5, 1.0),
          0.51,
          1 - 1e-12,
          std::nextafter(1.0, 0.0),
          1.0};
}

TEST(PurgeBernoulliDiffTest, MixedHistogramsMatchPerEntryBinomial) {
  // 12,000 histograms: every edge rate, then random rates.
  const std::vector<double> edges = EdgeRates();
  Pcg64 gen(29);
  for (uint64_t i = 0; i < 12000; ++i) {
    const CompactHistogram h = MixedHistogram(160, gen);
    const double q = i % 2 == 0 ? edges[(i / 2) % edges.size()]
                                : gen.NextDouble();
    ExpectSameAsOracle(h, q, i);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(PurgeBernoulliDiffTest, SingletonRunsAtEveryEdgeRate) {
  // Count-1 entries only (the merge shape), including one long run.
  Pcg64 gen(30);
  for (const double q : EdgeRates()) {
    for (const uint64_t distinct : {0, 1, 2, 63, 64, 65, 4096}) {
      CompactHistogram h;
      for (uint64_t i = 0; i < distinct; ++i) {
        h.Insert(static_cast<Value>(i * 3) - 100, 1);
      }
      ExpectSameAsOracle(h, q, distinct + gen.UniformInt(1000));
    }
  }
}

}  // namespace
}  // namespace sampwh
