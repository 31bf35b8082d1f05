// Differential test of purgeReservoir: PurgeReservoirStreamed (the
// production kernel) against PurgeReservoirStreamedLinearScan (the paper's
// literal Fig. 4 loop). Started from identical Pcg64 states, the two must
// return the same entries, counts and footprint and must leave the RNG at
// the same point, so the next draw from either generator is the same.
// Stored, merged and golden bytes all depend on that draw sequence.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/compact_histogram.h"
#include "src/core/purge.h"
#include "src/util/random.h"

namespace sampwh {
namespace {

uint64_t RecountFootprint(const CompactHistogram& h) {
  uint64_t footprint = 0;
  for (const auto& [v, n] : h.entries()) footprint += EntryFootprintBytes(n);
  return footprint;
}

// Runs both implementations on `sources` with reservoir size `m` from RNGs
// seeded with `seed`, and requires identical results and RNG positions.
void ExpectMatchesLinearScan(const std::vector<CompactHistogram>& sources,
                             uint64_t m, uint64_t seed) {
  std::vector<const CompactHistogram*> ptrs;
  uint64_t total = 0;
  for (const CompactHistogram& h : sources) {
    ptrs.push_back(&h);
    total += h.total_count();
  }
  Pcg64 kernel_rng(seed, 11);
  Pcg64 oracle_rng(seed, 11);
  const CompactHistogram kernel = PurgeReservoirStreamed(ptrs, m, kernel_rng);
  const CompactHistogram oracle =
      PurgeReservoirStreamedLinearScan(ptrs, m, oracle_rng);
  SCOPED_TRACE(testing::Message() << "sources=" << sources.size()
                                  << " total=" << total << " M=" << m
                                  << " seed=" << seed);
  ASSERT_EQ(kernel.entries(), oracle.entries());
  ASSERT_EQ(kernel.total_count(), oracle.total_count());
  ASSERT_EQ(kernel.total_count(), std::min(m, total));
  ASSERT_EQ(kernel.footprint_bytes(), oracle.footprint_bytes());
  ASSERT_EQ(kernel.footprint_bytes(), RecountFootprint(kernel));
  ASSERT_EQ(kernel_rng.NextUint64(), oracle_rng.NextUint64());
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

TEST(PurgeDiffTest, EveryTotalUpTo300) {
  Pcg64 gen(1);
  for (uint64_t total = 0; total <= 300; ++total) {
    const CompactHistogram h = HistogramWithTotal(total, gen);
    for (const uint64_t m : BoundarySizes(total)) {
      ExpectMatchesLinearScan({h}, m, total * 31 + m);
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
          ExpectMatchesLinearScan({h}, m, distinct * 7 + max_count + m);
        }
      }
    }
  }
}

TEST(PurgeDiffTest, MultiSourceWithSharedValues) {
  Pcg64 gen(3);
  for (int trial = 0; trial < 60; ++trial) {
    const uint64_t num_sources = 2 + gen.UniformInt(3);
    std::vector<CompactHistogram> sources;
    uint64_t total = 0;
    for (uint64_t s = 0; s < num_sources; ++s) {
      // Overlapping value ranges: every source shares values with the
      // others, and some sources are empty.
      const uint64_t distinct = gen.UniformInt(trial < 10 ? 4 : 300);
      sources.push_back(RandomHistogram(
          distinct, 1 + gen.UniformInt(4),
          static_cast<Value>(gen.UniformInt(50)),
          1 + static_cast<Value>(gen.UniformInt(2)), gen));
      total += sources.back().total_count();
    }
    for (const uint64_t m : BoundarySizes(total)) {
      ExpectMatchesLinearScan(sources, m, trial * 101 + m);
    }
  }
}

TEST(PurgeDiffTest, CountsUpTo2To40) {
  // Huge counts with small reservoirs: the fill ends inside the first
  // entry and Algorithm Z's long skips cross many entries.
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
      ExpectMatchesLinearScan({h}, m, trial * 13 + m);
    }
  }
  // One entry of 2^40 and a few singletons around it.
  CompactHistogram h;
  h.Insert(-1, 1);
  h.Insert(0, uint64_t{1} << 40);
  h.Insert(1, 1);
  for (const uint64_t m : std::vector<uint64_t>{0, 1, 2, 3, 500}) {
    ExpectMatchesLinearScan({h}, m, 99 + m);
  }
}

TEST(PurgeDiffTest, ReservoirAbove32Bits) {
  // A reservoir of more than 2^32 elements keeps 64-bit counts. The Fig. 4
  // loop would insert 2^32 elements one at a time, so this checks the
  // invariants rather than the oracle: the reservoir is full, and only the
  // last few stream elements could displace the first entry's copies.
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
  // The shape of a merge node: a 4096-value sample purged to about half.
  Pcg64 gen(5);
  for (int trial = 0; trial < 6; ++trial) {
    const CompactHistogram h =
        RandomHistogram(3500 + gen.UniformInt(600), 2, -100000, 17, gen);
    const uint64_t m = h.total_count() / 2 + gen.UniformInt(200);
    ExpectMatchesLinearScan({h}, m, 500 + trial);
  }
}

TEST(PurgeDiffTest, InPlaceWrapperMatchesOracle) {
  // PurgeReservoir leaves a sample that already fits untouched and draws
  // nothing; otherwise it is the streamed purge of the sample alone.
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
          m >= total ? original
                     : PurgeReservoirStreamedLinearScan({&original}, m,
                                                        oracle_rng);
      ASSERT_EQ(h.entries(), expected.entries()) << trial << " " << m;
      ASSERT_EQ(h.footprint_bytes(), expected.footprint_bytes());
      ASSERT_EQ(rng.NextUint64(), oracle_rng.NextUint64());
    }
  }
}

}  // namespace
}  // namespace sampwh
