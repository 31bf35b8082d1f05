// Statistical gate for the warm query path: merged samples served through
// the memoized merge tree and the sample cache — including after partial
// cache warm-up from overlapping sliding-window queries and a roll-out
// eviction mid-sequence — must pass the same chi-square uniformity test as
// fresh cold merges. Caching may only change WHERE bytes come from, never
// the distribution of the sampling result.
//
// Design: each trial builds a fresh seeded warehouse holding 8 reservoir
// partitions of three values each (sample == parent, so Theorem 1's
// hypergeometric split over parent sizes is a split over the observable
// values and the merged result is EXACTLY uniform — testable, not just
// asymptotically so). It warms overlapping union windows, rolls the two
// oldest partitions out (evicting their cache/memo entries), then queries
// the window {2..7} twice. Under the merge footprint bound of 3 singletons
// (and HR merge's k = min rule) every window query is an SRS of size 3
// from the window's 18 distinct values, so across trials the returned
// subsets must be uniform over C(18, 3) = 816 possibilities, with the
// merge memo on and with it off (merge_memo_bytes = 0). The repeated query
// must additionally be bit-identical to its predecessor on both: node RNGs
// derive from node identity, so a repeat is never re-randomized.

#include <vector>

#include <gtest/gtest.h>

#include "src/core/types.h"
#include "src/stats/uniformity.h"
#include "src/util/serialization.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {
namespace {

constexpr double kAlpha = 1e-4;
constexpr uint64_t kNumPartitions = 8;
constexpr uint64_t kValuesPerPartition = 3;
constexpr uint64_t kWindowBegin = 2;  // final query window: ids {2..7}
constexpr uint64_t kTrials = 20000;

std::string Bytes(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return writer.Release();
}

/// Partition `id` holds the values {3*id, 3*id+1, 3*id+2} as a reservoir
/// sample covering its whole parent. Reservoir phase keeps every pairwise
/// merge on the HR path (exhaustive inputs would route to the Bernoulli
/// merge, whose output size is random); full coverage makes the merged
/// subset distribution exactly uniform over the stored values.
PartitionSample PartitionContents(uint64_t id) {
  CompactHistogram h;
  for (uint64_t i = 0; i < kValuesPerPartition; ++i) {
    h.Insert(kValuesPerPartition * id + i, 1);
  }
  return PartitionSample::MakeReservoir(
      h, kValuesPerPartition, kValuesPerPartition * kSingletonFootprintBytes);
}

/// One trial: a fresh warehouse (seeded from the trial RNG), a warmed and
/// partially evicted cache, then the measured window query. Returns the
/// values of the merged sample. `memoized` selects the warm (memo +
/// sample-cache) path or a warehouse without the merge memo; both must be
/// uniform.
std::vector<Value> RunTrial(Pcg64& trial_rng, bool memoized) {
  WarehouseOptions options;
  // Merge bound of 3 singletons: every union query is an SRS of size 3.
  options.merge.footprint_bound_bytes = 3 * kSingletonFootprintBytes;
  options.sample_cache_bytes = 1 << 20;
  options.merge_memo_bytes = memoized ? 1 << 20 : 0;
  options.seed = trial_rng.NextUint64();
  Warehouse warehouse(options);
  EXPECT_TRUE(warehouse.CreateDataset("w").ok());
  for (uint64_t id = 0; id < kNumPartitions; ++id) {
    auto rolled = warehouse.RollIn("w", PartitionContents(id));
    EXPECT_TRUE(rolled.ok());
    EXPECT_EQ(rolled.value(), id);
  }
  // Warm overlapping sliding windows, as a rolling report would: the memo
  // now holds subtrees that the final window partially shares.
  EXPECT_TRUE(warehouse.MergedSample("w", {0, 1, 2, 3, 4, 5}).ok());
  EXPECT_TRUE(warehouse.MergedSample("w", {1, 2, 3, 4, 5, 6}).ok());
  // Slide the window: roll the oldest partitions out, evicting their cache
  // and memo entries while the shared subtrees stay warm.
  EXPECT_TRUE(warehouse.RollOut("w", 0).ok());
  EXPECT_TRUE(warehouse.RollOut("w", 1).ok());

  std::vector<PartitionId> window;
  for (uint64_t id = kWindowBegin; id < kNumPartitions; ++id) {
    window.push_back(id);
  }
  auto first = warehouse.MergedSample("w", window);
  EXPECT_TRUE(first.ok());
  auto warm = warehouse.MergedSample("w", window);
  EXPECT_TRUE(warm.ok());
  // The repeat must be bit-identical — uniformity must not come from
  // hidden re-randomization, warm or recomputed.
  EXPECT_EQ(Bytes(first.value()), Bytes(warm.value()));
  return warm.value().histogram().ToBag();
}

void ExpectWindowUniform(bool memoized, uint64_t seed) {
  std::vector<Value> window_values;
  for (uint64_t v = kWindowBegin * kValuesPerPartition;
       v < kNumPartitions * kValuesPerPartition; ++v) {
    window_values.push_back(v);
  }
  Pcg64 rng(seed);
  const UniformityReport report = RunSubsetUniformityExperiment(
      window_values, kTrials,
      [memoized](Pcg64& trial_rng) { return RunTrial(trial_rng, memoized); },
      rng);
  // The merge bound and HR's k = min rule pin the result at size 3: one
  // tested class over C(18, 3) = 816 subsets.
  ASSERT_GE(report.TestedClasses(), 1u);
  const SizeClassResult& pinned = report.by_size.at(3);
  EXPECT_EQ(pinned.trials, kTrials);
  EXPECT_EQ(pinned.num_subsets, 816u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

TEST(WarmUniformityProperty, MemoizedWindowQueriesAreUniform) {
  ExpectWindowUniform(/*memoized=*/true, /*seed=*/0x5EEDAA01ULL);
}

TEST(WarmUniformityProperty, FreshMergesRemainUniform) {
  ExpectWindowUniform(/*memoized=*/false, /*seed=*/0x5EEDAA02ULL);
}

}  // namespace
}  // namespace sampwh
