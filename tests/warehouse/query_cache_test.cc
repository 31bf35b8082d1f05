// Tests of the warehouse read-path caches: the deserialized-sample cache
// in front of the store and the memoized merge tree. The invariants under
// test are the ones DESIGN.md promises — caches change latency, never
// results: strict eviction on roll-out / retention / drop, and (with
// memoization) bit-identical warm, cold and post-eviction query results.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/serialization.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {
namespace {

WarehouseOptions CachedOptions(uint64_t f = 512) {
  WarehouseOptions options;
  options.sampler.kind = SamplerKind::kHybridReservoir;
  options.sampler.footprint_bound_bytes = f;
  options.sample_cache_bytes = 8ull << 20;
  options.merge_memo_bytes = 8ull << 20;
  return options;
}

std::vector<Value> Range(Value begin, Value end) {
  std::vector<Value> out;
  for (Value v = begin; v < end; ++v) out.push_back(v);
  return out;
}

std::string Bytes(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return writer.Release();
}

PartitionSample HandmadeSample(uint64_t parent) {
  CompactHistogram hist;
  hist.Insert(1, 2);
  hist.Insert(5, 3);
  return PartitionSample::MakeReservoir(std::move(hist), parent, 4096);
}

TEST(QueryCacheTest, GetSampleHitsAfterWriteThroughRollIn) {
  Warehouse wh(CachedOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 4000), 4);
  ASSERT_TRUE(ids.ok());
  // Roll-in writes through, so the first read is already a hit.
  ASSERT_TRUE(wh.GetSample("ds", ids.value()[0]).ok());
  WarehouseCacheStats stats = wh.GetCacheStats();
  EXPECT_EQ(stats.sample_cache.insertions, 4u);
  EXPECT_EQ(stats.sample_cache.hits, 1u);
  EXPECT_EQ(stats.sample_cache.misses, 0u);

  // After a wholesale invalidation the first read misses and refills.
  wh.InvalidateCaches();
  ASSERT_TRUE(wh.GetSample("ds", ids.value()[0]).ok());
  ASSERT_TRUE(wh.GetSample("ds", ids.value()[0]).ok());
  stats = wh.GetCacheStats();
  EXPECT_EQ(stats.sample_cache.misses, 1u);
  EXPECT_EQ(stats.sample_cache.hits, 2u);
  EXPECT_EQ(stats.sample_cache.entries, 1u);
}

TEST(QueryCacheTest, CachedGetSampleMatchesStoreRead) {
  Warehouse cached(CachedOptions());
  WarehouseOptions uncached_options = CachedOptions();
  uncached_options.sample_cache_bytes = 0;
  uncached_options.merge_memo_bytes = 0;
  Warehouse uncached(uncached_options);
  for (Warehouse* wh : {&cached, &uncached}) {
    ASSERT_TRUE(wh->CreateDataset("ds").ok());
    ASSERT_TRUE(wh->IngestBatch("ds", Range(0, 4000), 4).ok());
  }
  for (PartitionId id = 0; id < 4; ++id) {
    const auto a = cached.GetSample("ds", id);
    const auto b = uncached.GetSample("ds", id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(Bytes(a.value()), Bytes(b.value()));
    // Same warehouse, warm read: identical to the first.
    EXPECT_EQ(Bytes(cached.GetSample("ds", id).value()), Bytes(a.value()));
  }
}

TEST(QueryCacheTest, MergeMemoNodesAccumulateAndHit) {
  Warehouse wh(CachedOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 4000), 4);
  ASSERT_TRUE(ids.ok());
  const auto first = wh.MergedSampleAll("ds");
  ASSERT_TRUE(first.ok());
  // Balanced tree over [0,1,2,3] memoizes (01), (23) and the root.
  WarehouseCacheStats stats = wh.GetCacheStats();
  EXPECT_EQ(stats.merge_memo.entries, 3u);
  EXPECT_EQ(stats.merge_memo.insertions, 3u);

  const auto second = wh.MergedSampleAll("ds");
  ASSERT_TRUE(second.ok());
  stats = wh.GetCacheStats();
  EXPECT_EQ(stats.merge_memo.hits, 1u);  // root shortcut, no new nodes
  EXPECT_EQ(stats.merge_memo.entries, 3u);
  EXPECT_EQ(Bytes(first.value()), Bytes(second.value()));

  // A sub-union reuses its memoized interior node.
  const auto sub = wh.MergedSample("ds", {ids.value()[2], ids.value()[3]});
  ASSERT_TRUE(sub.ok());
  stats = wh.GetCacheStats();
  EXPECT_EQ(stats.merge_memo.hits, 2u);
}

TEST(QueryCacheTest, MissedQueryLooksEachNodeUpOnce) {
  Warehouse wh(CachedOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  ASSERT_TRUE(wh.IngestBatch("ds", Range(0, 4000), 4).ok());
  // A cold query over [0,1,2,3] misses the root once, then (01) and (23).
  ASSERT_TRUE(wh.MergedSampleAll("ds").ok());
  WarehouseCacheStats stats = wh.GetCacheStats();
  EXPECT_EQ(stats.merge_memo.misses, 3u);
  EXPECT_EQ(stats.merge_memo.hits, 0u);

  // The repeat is one root hit and no new miss.
  ASSERT_TRUE(wh.MergedSampleAll("ds").ok());
  stats = wh.GetCacheStats();
  EXPECT_EQ(stats.merge_memo.hits, 1u);
  EXPECT_EQ(stats.merge_memo.misses, 3u);
}

TEST(QueryCacheTest, RollOutEvictsSampleAndEveryContainingMergeNode) {
  Warehouse wh(CachedOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 4000), 4);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(wh.MergedSampleAll("ds").ok());  // nodes (01), (23), (0123)
  WarehouseCacheStats stats = wh.GetCacheStats();
  ASSERT_EQ(stats.merge_memo.entries, 3u);
  ASSERT_EQ(stats.sample_cache.entries, 4u);

  ASSERT_TRUE(wh.RollOut("ds", ids.value()[0]).ok());
  stats = wh.GetCacheStats();
  // p0's cached sample and both nodes containing p0 are gone; (23) stays.
  EXPECT_EQ(stats.sample_cache.entries, 3u);
  EXPECT_EQ(stats.merge_memo.entries, 1u);
  EXPECT_GE(stats.merge_memo.invalidations, 2u);

  // The surviving partitions still merge, bit-identical to a cold query.
  const auto after = wh.MergedSampleAll("ds");
  ASSERT_TRUE(after.ok());
  wh.InvalidateCaches();
  const auto cold = wh.MergedSampleAll("ds");
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Bytes(after.value()), Bytes(cold.value()));
}

TEST(QueryCacheTest, RetentionExpiryEvictsLikeRollOut) {
  Warehouse wh(CachedOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  // Partitions with event-time ranges 0-10, 10-20, 20-30, 30-40.
  for (uint64_t p = 0; p < 4; ++p) {
    const auto id =
        wh.RollIn("ds", HandmadeSample(100 + p), p * 10, (p + 1) * 10);
    ASSERT_TRUE(id.ok());
  }
  ASSERT_TRUE(wh.MergedSampleAll("ds").ok());
  ASSERT_EQ(wh.GetCacheStats().merge_memo.entries, 3u);

  // now=35, keep 20 ticks: partitions 0 (max 10) expires, 1 (max 20) does
  // not (20 >= 35 - 20).
  RetentionPolicy policy;
  policy.keep_window_ticks = 20;
  const auto expired = wh.ApplyRetention("ds", policy, 35);
  ASSERT_TRUE(expired.ok());
  ASSERT_EQ(expired.value(), (std::vector<PartitionId>{0}));

  const WarehouseCacheStats stats = wh.GetCacheStats();
  EXPECT_EQ(stats.sample_cache.entries, 3u);
  EXPECT_EQ(stats.merge_memo.entries, 1u);

  const auto warm = wh.MergedSampleAll("ds");
  ASSERT_TRUE(warm.ok());
  wh.InvalidateCaches();
  const auto cold = wh.MergedSampleAll("ds");
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Bytes(warm.value()), Bytes(cold.value()));
}

TEST(QueryCacheTest, DropAndRecreateNeverServesStaleEpoch) {
  Warehouse wh(CachedOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  ASSERT_TRUE(wh.RollIn("ds", HandmadeSample(111)).ok());
  ASSERT_TRUE(wh.GetSample("ds", 0).ok());  // warm the cache with epoch-0 p0

  ASSERT_TRUE(wh.DropDataset("ds").ok());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  // The recreated dataset allocates partition ids from 0 again.
  const auto id = wh.RollIn("ds", HandmadeSample(222));
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(id.value(), 0u);
  const auto sample = wh.GetSample("ds", 0);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample.value().parent_size(), 222u);
}

TEST(QueryCacheTest, CompactionInvalidatesInputsAndServesMergedResult) {
  Warehouse wh(CachedOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 4000), 4);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(wh.MergedSampleAll("ds").ok());
  const auto compacted =
      wh.CompactPartitions("ds", {ids.value()[0], ids.value()[1]});
  ASSERT_TRUE(compacted.ok());
  // All memo nodes touched p0 or p1, so compaction leaves only (23) alive.
  EXPECT_EQ(wh.GetCacheStats().merge_memo.entries, 1u);
  const auto warm = wh.MergedSampleAll("ds");
  ASSERT_TRUE(warm.ok());
  wh.InvalidateCaches();
  const auto cold = wh.MergedSampleAll("ds");
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Bytes(warm.value()), Bytes(cold.value()));
}

}  // namespace
}  // namespace sampwh
