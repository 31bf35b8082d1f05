// Tests of the warehouse read-path caches: the deserialized-sample cache
// in front of the store and the memoized merge tree. The invariants under
// test are the ones DESIGN.md promises — caches change latency, never
// results: strict eviction on roll-out / retention / drop, and (with
// memoization) bit-identical warm, cold and post-eviction query results.
// A root served through MergedSampleBytes keeps its encoded answer in the
// memo, charged to the memo budget and evicted with the node.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/serialization.h"
#include "src/warehouse/merge_memo.h"
#include "src/warehouse/sample_cache.h"
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

TEST(QueryCacheTest, ServedRootChargesItsBytesAndRollOutGivesThemBack) {
  // `control` runs the same library queries but never serves a root.
  Warehouse wh(CachedOptions());
  Warehouse control(CachedOptions());
  std::vector<PartitionId> ids;
  for (Warehouse* w : {&wh, &control}) {
    ASSERT_TRUE(w->CreateDataset("ds").ok());
    const auto made = w->IngestBatch("ds", Range(0, 4000), 4);
    ASSERT_TRUE(made.ok());
    ids = made.value();
    // The library query memoizes (01), (23) and the root, without bytes.
    ASSERT_TRUE(w->MergedSampleAll("ds").ok());
  }
  const CacheStats before = wh.GetCacheStats().merge_memo;
  ASSERT_EQ(before.bytes, control.GetCacheStats().merge_memo.bytes);

  // Serving the root encodes it once and re-memoizes it with its bytes.
  const auto served = wh.MergedSampleBytes("ds", {});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const std::string reference = Bytes(wh.MergedSampleAll("ds").value());
  EXPECT_EQ(*served.value(), reference);
  const CacheStats after = wh.GetCacheStats().merge_memo;
  EXPECT_GE(after.bytes, before.bytes + served.value()->size());
  EXPECT_EQ(after.entries, 3u);
  EXPECT_EQ(after.insertions, before.insertions + 1);

  // A second hit shares the stored bytes and inserts nothing.
  const auto again = wh.MergedSampleBytes("ds", {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), served.value().get());
  EXPECT_EQ(wh.GetCacheStats().merge_memo.insertions, after.insertions);
  EXPECT_EQ(wh.GetCacheStats().merge_memo.bytes, after.bytes);

  // Rolling out a member evicts the root with its bytes: the memo keeps
  // exactly what the warehouse that never served the root keeps.
  ASSERT_TRUE(wh.RollOut("ds", ids[0]).ok());
  ASSERT_TRUE(control.RollOut("ds", ids[0]).ok());
  EXPECT_EQ(wh.GetCacheStats().merge_memo.entries, 1u);
  EXPECT_EQ(wh.GetCacheStats().merge_memo.bytes,
            control.GetCacheStats().merge_memo.bytes);
  // The bytes an answer still holds outlive the node's eviction.
  EXPECT_EQ(*served.value(), reference);
}

TEST(QueryCacheTest, ServedBytesMatchTheCopyingApiOnEveryPath) {
  Warehouse wh(CachedOptions());
  WarehouseOptions plain_options = CachedOptions();
  plain_options.merge_memo_bytes = 0;
  Warehouse plain(plain_options);
  std::vector<PartitionId> ids;
  for (Warehouse* w : {&wh, &plain}) {
    ASSERT_TRUE(w->CreateDataset("ds").ok());
    const auto made = w->IngestBatch("ds", Range(0, 4000), 4);
    ASSERT_TRUE(made.ok());
    ids = made.value();
  }
  // A cold served query memoizes (01), (23) and the root with its bytes.
  const auto cold = wh.MergedSampleBytes("ds", {});
  ASSERT_TRUE(cold.ok());
  CacheStats stats = wh.GetCacheStats().merge_memo;
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(*cold.value(), Bytes(wh.MergedSampleAll("ds").value()));
  const auto warm = wh.MergedSampleBytes("ds", {});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().get(), cold.value().get());
  EXPECT_EQ(wh.GetCacheStats().merge_memo.insertions, 3u);

  // (23) was memoized as an interior node; served as a root it is encoded
  // once, then shared.
  const std::vector<PartitionId> pair = {ids[3], ids[2]};
  const auto first = wh.MergedSampleBytes("ds", pair);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(wh.GetCacheStats().merge_memo.insertions, 4u);
  const auto second = wh.MergedSampleBytes("ds", pair);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().get(), first.value().get());
  EXPECT_EQ(wh.GetCacheStats().merge_memo.insertions, 4u);
  EXPECT_EQ(*first.value(), Bytes(wh.MergedSample("ds", pair).value()));

  // A single id is its stored leaf, encoded and not memoized.
  const auto leaf = wh.MergedSampleBytes("ds", {ids[1]});
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(*leaf.value(), Bytes(wh.GetSample("ds", ids[1]).value()));
  EXPECT_EQ(wh.GetCacheStats().merge_memo.insertions, 4u);

  // Without a memo every path encodes the same bytes.
  for (const std::vector<PartitionId>& q :
       {std::vector<PartitionId>{}, pair, std::vector<PartitionId>{ids[1]}}) {
    const auto a = wh.MergedSampleBytes("ds", q);
    const auto b = plain.MergedSampleBytes("ds", q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a.value(), *b.value());
  }

  // The catalog checks of MergedSample and MergedSampleAll.
  EXPECT_TRUE(wh.MergedSampleBytes("ds", {ids[0], 999}).status().IsNotFound());
  EXPECT_TRUE(wh.MergedSampleBytes("ds", {ids[0], ids[0]})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(wh.MergedSampleBytes("nope", {}).status().IsNotFound());
  ASSERT_TRUE(wh.CreateDataset("empty").ok());
  EXPECT_TRUE(
      wh.MergedSampleBytes("empty", {}).status().IsInvalidArgument());
}

TEST(QueryCacheTest, InsertsRacingAnInvalidationAreRefused) {
  // A reader resolves its view, then a roll-out of a member invalidates:
  // what the reader built from the old member must not enter either cache.
  const std::vector<PartitionId> ids = {7, 8};
  auto sample = std::make_shared<const PartitionSample>(HandmadeSample(9));
  MergeMemo memo(4, 1 << 20);
  const MergeMemo::View memo_view = memo.CurrentView("ds");
  memo.InvalidatePartition("ds", 7);
  memo.Insert("ds", ids, 0, memo_view, {sample, nullptr});
  EXPECT_EQ(memo.Stats().entries, 0u);
  memo.Insert("ds", ids, 0, memo.CurrentView("ds"), {sample, nullptr});
  EXPECT_EQ(memo.Stats().entries, 1u);
  // Another dataset's invalidation does not refuse it.
  const MergeMemo::View other = memo.CurrentView("other");
  memo.InvalidatePartition("ds", 8);
  memo.Insert("other", ids, 0, other, {sample, nullptr});
  EXPECT_EQ(memo.Stats().entries, 1u);
  // A clear refuses every reader that resolved its view before it.
  const MergeMemo::View before_clear = memo.CurrentView("other");
  memo.Clear();
  memo.Insert("other", ids, 0, before_clear, {sample, nullptr});
  EXPECT_EQ(memo.Stats().entries, 0u);

  SampleCache cache(4, 1 << 20);
  const SampleCache::View cache_view = cache.CurrentView("ds");
  cache.Invalidate("ds", 7);
  cache.Insert("ds", cache_view, 7, sample);
  EXPECT_EQ(cache.Peek("ds", cache_view.epoch, 7), nullptr);
  cache.Insert("ds", cache.CurrentView("ds"), 7, sample);
  EXPECT_NE(cache.Peek("ds", cache_view.epoch, 7), nullptr);
  const SampleCache::View before_drop = cache.CurrentView("ds");
  cache.InvalidateDataset("ds");
  cache.Insert("ds", before_drop, 8, sample);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

}  // namespace
}  // namespace sampwh
