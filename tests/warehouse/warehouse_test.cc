#include "src/warehouse/warehouse.h"

#include <atomic>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

namespace sampwh {
namespace {

WarehouseOptions HrOptions(uint64_t f = 512) {
  WarehouseOptions options;
  options.sampler.kind = SamplerKind::kHybridReservoir;
  options.sampler.footprint_bound_bytes = f;
  return options;
}

std::vector<Value> Range(Value begin, Value end) {
  std::vector<Value> out;
  for (Value v = begin; v < end; ++v) out.push_back(v);
  return out;
}

TEST(WarehouseTest, DatasetLifecycle) {
  Warehouse wh(HrOptions());
  EXPECT_TRUE(wh.CreateDataset("orders").ok());
  EXPECT_TRUE(wh.HasDataset("orders"));
  EXPECT_TRUE(wh.CreateDataset("orders").IsAlreadyExists());
  EXPECT_TRUE(wh.DropDataset("orders").ok());
  EXPECT_FALSE(wh.HasDataset("orders"));
}

TEST(WarehouseTest, IngestBatchCreatesPartitionsAndSamples) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 10000), 4);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), 4u);
  const auto parts = wh.ListPartitions("ds");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts.value().size(), 4u);
  for (const PartitionInfo& p : parts.value()) {
    EXPECT_EQ(p.parent_size, 2500u);
    EXPECT_EQ(p.sample_size, 64u);  // n_F for 512 bytes
    EXPECT_EQ(p.phase, SamplePhase::kReservoir);
  }
}

TEST(WarehouseTest, IngestBatchParallelMatchesStructure) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  ThreadPool pool(4);
  const auto ids = wh.IngestBatch("ds", Range(0, 10000), 8, &pool);
  ASSERT_TRUE(ids.ok());
  const auto info = wh.GetDatasetInfo("ds");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().num_partitions, 8u);
  EXPECT_EQ(info.value().total_parent_size, 10000u);
}

TEST(WarehouseTest, IngestBatchUnevenSplit) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 10), 3);
  ASSERT_TRUE(ids.ok());
  const auto parts = wh.ListPartitions("ds");
  ASSERT_TRUE(parts.ok());
  uint64_t total = 0;
  for (const PartitionInfo& p : parts.value()) total += p.parent_size;
  EXPECT_EQ(total, 10u);
}

TEST(WarehouseTest, IngestIntoMissingDatasetFails) {
  Warehouse wh(HrOptions());
  EXPECT_TRUE(wh.IngestBatch("ghost", Range(0, 10), 1).status().IsNotFound());
}

TEST(WarehouseTest, RollInRollOut) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  CompactHistogram h;
  for (Value v = 0; v < 10; ++v) h.Insert(v);
  const PartitionSample s = PartitionSample::MakeExhaustive(h, 10, 512);
  const auto id = wh.RollIn("ds", s, 100, 199);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(wh.GetSample("ds", id.value()).ok());
  ASSERT_TRUE(wh.RollOut("ds", id.value()).ok());
  EXPECT_TRUE(wh.GetSample("ds", id.value()).status().IsNotFound());
  EXPECT_TRUE(wh.RollOut("ds", id.value()).IsNotFound());
}

TEST(WarehouseTest, RollInAtPlacesExplicitIdsAndGuardsCollisions) {
  // The shard coordinator allocates partition ids globally and places them
  // via RollInAt; the warehouse must honor the explicit id, reject an
  // occupied one without clobbering the stored sample, and keep its own
  // allocator ahead of coordinator-placed ids.
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  CompactHistogram h;
  for (Value v = 0; v < 10; ++v) h.Insert(v);
  const PartitionSample s = PartitionSample::MakeExhaustive(h, 10, 512);

  const auto placed = wh.RollInAt("ds", 42, s, 7, 9);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), 42u);
  const auto parts = wh.ListPartitions("ds");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts.value().size(), 1u);
  EXPECT_EQ(parts.value()[0].id, 42u);
  EXPECT_EQ(parts.value()[0].min_timestamp, 7u);
  EXPECT_EQ(parts.value()[0].max_timestamp, 9u);

  // Occupied id: rejected before the store is touched.
  CompactHistogram other;
  other.Insert(99);
  EXPECT_TRUE(wh.RollInAt("ds", 42,
                          PartitionSample::MakeExhaustive(other, 1, 512))
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(wh.GetSample("ds", 42).value().parent_size(), 10u);

  // The local allocator stays ahead of the explicit id.
  const auto allocated = wh.RollIn("ds", s);
  ASSERT_TRUE(allocated.ok());
  EXPECT_EQ(allocated.value(), 43u);

  EXPECT_TRUE(wh.RollInAt("ghost", 0, s).status().IsNotFound());
}

TEST(WarehouseTest, MergedSampleAllIsUniformSizeAndParent) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  ASSERT_TRUE(wh.IngestBatch("ds", Range(0, 20000), 8).ok());
  const auto merged = wh.MergedSampleAll("ds");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().parent_size(), 20000u);
  EXPECT_EQ(merged.value().size(), 64u);
  EXPECT_TRUE(merged.value().Validate().ok());
  // All sampled values must come from the ingested domain.
  merged.value().histogram().ForEach([](Value v, uint64_t) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20000);
  });
}

TEST(WarehouseTest, MergedSampleSubsetOnlyCoversRequestedPartitions) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 8000), 4);
  ASSERT_TRUE(ids.ok());
  // Partitions are contiguous chunks of 2000; merge the first two.
  const auto merged =
      wh.MergedSample("ds", {ids.value()[0], ids.value()[1]});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 4000u);
  merged.value().histogram().ForEach([](Value v, uint64_t) {
    EXPECT_LT(v, 4000);
  });
}

TEST(WarehouseTest, MergedSampleRejectsUnknownPartition) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  ASSERT_TRUE(wh.IngestBatch("ds", Range(0, 100), 1).ok());
  EXPECT_TRUE(wh.MergedSample("ds", {99}).status().IsNotFound());
}

TEST(WarehouseTest, TimeRangeQueryMergesMatchingWindows) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("daily").ok());
  // Roll in 7 "days" of 1000 elements each.
  Pcg64 rng = wh.ForkRng();
  for (int day = 0; day < 7; ++day) {
    SamplerConfig config = HrOptions().sampler;
    AnySampler sampler(config, rng.Fork(day));
    for (Value v = 0; v < 1000; ++v) {
      sampler.Add(day * 1000 + v);
    }
    ASSERT_TRUE(
        wh.RollIn("daily", sampler.Finalize(), day * 24, day * 24 + 23)
            .ok());
  }
  // "Week so far": days 0-2.
  const auto merged = wh.MergedSampleInTimeRange("daily", 0, 71);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 3000u);
  merged.value().histogram().ForEach([](Value v, uint64_t) {
    EXPECT_LT(v, 3000);
  });
}

TEST(WarehouseTest, RolledOutPartitionExcludedFromMerge) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 6000), 3);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(wh.RollOut("ds", ids.value()[2]).ok());
  const auto merged = wh.MergedSampleAll("ds");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 4000u);
  merged.value().histogram().ForEach([](Value v, uint64_t) {
    EXPECT_LT(v, 4000);  // third chunk [4000, 6000) is gone
  });
}

TEST(WarehouseTest, HbConfiguredWarehouseMergesBernoulliSamples) {
  WarehouseOptions options;
  options.sampler.kind = SamplerKind::kHybridBernoulli;
  options.sampler.footprint_bound_bytes = 8192;
  Warehouse wh(options);
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  ASSERT_TRUE(wh.IngestBatch("ds", Range(0, 100000), 4).ok());
  const auto merged = wh.MergedSampleAll("ds");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 100000u);
  EXPECT_LE(merged.value().footprint_bytes(), 8192u);
  EXPECT_TRUE(merged.value().Validate().ok());
}

TEST(WarehouseTest, FileBackedWarehouseSurvivesOperations) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_wh_test").string();
  std::filesystem::remove_all(dir);
  auto store = FileSampleStore::Open(dir);
  ASSERT_TRUE(store.ok());
  Warehouse wh(HrOptions(), std::move(store).value());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  ASSERT_TRUE(wh.IngestBatch("ds", Range(0, 5000), 2).ok());
  const auto merged = wh.MergedSampleAll("ds");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 5000u);
  std::filesystem::remove_all(dir);
}

TEST(WarehouseTest, DropDatasetDeletesStoredSamples) {
  WarehouseOptions options = HrOptions();
  auto store = std::make_unique<InMemorySampleStore>();
  InMemorySampleStore* raw = store.get();
  Warehouse wh(options, std::move(store));
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  ASSERT_TRUE(wh.IngestBatch("ds", Range(0, 1000), 2).ok());
  EXPECT_GT(raw->TotalStoredBytes(), 0u);
  ASSERT_TRUE(wh.DropDataset("ds").ok());
  EXPECT_EQ(raw->TotalStoredBytes(), 0u);
}

TEST(WarehouseTest, CompactPartitionsConsolidates) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("daily").ok());
  // Seven "daily" partitions with time ranges.
  std::vector<PartitionId> days;
  Pcg64 rng = wh.ForkRng();
  for (int day = 0; day < 7; ++day) {
    AnySampler sampler(HrOptions().sampler, rng.Fork(day));
    for (Value v = 0; v < 1000; ++v) sampler.Add(day * 1000 + v);
    const auto id =
        wh.RollIn("daily", sampler.Finalize(), day * 24, day * 24 + 23);
    ASSERT_TRUE(id.ok());
    days.push_back(id.value());
  }
  const auto week = wh.CompactPartitions("daily", days);
  ASSERT_TRUE(week.ok()) << week.status().ToString();
  // The dailies are gone; one weekly partition remains.
  const auto parts = wh.ListPartitions("daily");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts.value().size(), 1u);
  EXPECT_EQ(parts.value()[0].id, week.value());
  EXPECT_EQ(parts.value()[0].parent_size, 7000u);
  EXPECT_EQ(parts.value()[0].min_timestamp, 0u);
  EXPECT_EQ(parts.value()[0].max_timestamp, 6 * 24 + 23u);
  // Queries keep working against the consolidated sample.
  const auto merged = wh.MergedSampleAll("daily");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 7000u);
  EXPECT_EQ(merged.value().size(), 64u);
}

TEST(WarehouseTest, CompactPartitionsRejectsBadInput) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 2000), 2);
  ASSERT_TRUE(ids.ok());
  EXPECT_FALSE(wh.CompactPartitions("ds", {ids.value()[0]}).ok());
  EXPECT_FALSE(
      wh.CompactPartitions("ds", {ids.value()[0], 999}).ok());
  // Failed compaction must not have rolled anything out.
  EXPECT_EQ(wh.ListPartitions("ds").value().size(), 2u);
}

TEST(WarehouseTest, DuplicatePartitionIdsAreRejected) {
  // Merging a partition with itself breaks the disjointness Theorem 1
  // needs; compacting one would roll it out twice and lose the merge.
  for (const uint64_t memo_bytes : {uint64_t{0}, uint64_t{8} << 20}) {
    SCOPED_TRACE("merge_memo_bytes=" + std::to_string(memo_bytes));
    WarehouseOptions options = HrOptions(512);
    options.merge_memo_bytes = memo_bytes;
    Warehouse wh(options);
    ASSERT_TRUE(wh.CreateDataset("ds").ok());
    const auto ids = wh.IngestBatch("ds", Range(0, 4000), 4);
    ASSERT_TRUE(ids.ok());
    const PartitionId p = ids.value()[0];
    const PartitionId q = ids.value()[1];

    EXPECT_TRUE(wh.MergedSample("ds", {p, p}).status().IsInvalidArgument());
    EXPECT_TRUE(
        wh.MergedSample("ds", {q, p, q}).status().IsInvalidArgument());
    EXPECT_TRUE(
        wh.CompactPartitions("ds", {q, q}).status().IsInvalidArgument());
    // The rejected compaction rolled nothing out and nothing in.
    EXPECT_EQ(wh.ListPartitions("ds").value().size(), 4u);
    EXPECT_EQ(wh.GetDatasetInfo("ds").value().total_parent_size, 4000u);
    const auto all = wh.MergedSampleAll("ds");
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all.value().parent_size(), 4000u);
  }
}

TEST(WarehouseTest, ConcurrentIngestAndQuery) {
  // Thread-safety smoke test: parallel RollIn/Query/ListPartitions from
  // many threads must neither crash nor corrupt the catalog.
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("hot").ok());
  ASSERT_TRUE(wh.IngestBatch("hot", Range(0, 1000), 1).ok());  // seed data
  ThreadPool pool(8);
  std::atomic<int> failures{0};
  for (int t = 0; t < 32; ++t) {
    pool.Submit([&wh, &failures, t] {
      SamplerConfig config;
      config.kind = SamplerKind::kHybridReservoir;
      config.footprint_bound_bytes = 512;
      Pcg64 rng(5000 + t);
      AnySampler sampler(config, std::move(rng));
      for (Value v = 0; v < 2000; ++v) sampler.Add(t * 2000 + v);
      if (!wh.RollIn("hot", sampler.Finalize()).ok()) failures.fetch_add(1);
      if (!wh.MergedSampleAll("hot").ok()) failures.fetch_add(1);
      if (!wh.ListPartitions("hot").ok()) failures.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(failures.load(), 0);
  const auto info = wh.GetDatasetInfo("hot");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().num_partitions, 33u);
  EXPECT_EQ(info.value().total_parent_size, 1000u + 32u * 2000u);
}

TEST(WarehouseTest, OwnedPoolUsedForIngestBatch) {
  WarehouseOptions options = HrOptions(512);
  options.worker_threads = 4;
  Warehouse wh(options);
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  const auto ids = wh.IngestBatch("ds", Range(0, 8000), 8);  // no pool arg
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), 8u);
  const auto info = wh.GetDatasetInfo("ds");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().total_parent_size, 8000u);
}

TEST(WarehouseTest, ConcurrentIngestAcrossDatasets) {
  // Per-dataset locking: ingest into 4 datasets from 8 threads while
  // querying them; no crashes, every partition accounted for.
  Warehouse wh(HrOptions());
  const std::vector<DatasetId> datasets = {"a", "b", "c", "d"};
  for (const auto& ds : datasets) ASSERT_TRUE(wh.CreateDataset(ds).ok());
  ThreadPool pool(8);
  std::atomic<int> failures{0};
  for (int t = 0; t < 32; ++t) {
    const DatasetId ds = datasets[t % datasets.size()];
    pool.Submit([&wh, &failures, ds, t] {
      SamplerConfig config;
      config.kind = SamplerKind::kHybridReservoir;
      config.footprint_bound_bytes = 512;
      AnySampler sampler(config, Pcg64(9000 + t));
      const std::vector<Value> values = Range(t * 1000, (t + 1) * 1000);
      sampler.AddBatch(values);
      if (!wh.RollIn(ds, sampler.Finalize()).ok()) failures.fetch_add(1);
      if (!wh.ListPartitions(ds).ok()) failures.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& ds : datasets) {
    const auto info = wh.GetDatasetInfo(ds);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().num_partitions, 8u);
    EXPECT_EQ(info.value().total_parent_size, 8000u);
  }
}

/// The dataset's catalog version as the serving path reads it.
uint64_t VersionOf(Warehouse& wh, const DatasetId& dataset) {
  uint64_t version = 0;
  EXPECT_TRUE(wh.MergedSampleBytes(dataset, {}, &version).ok());
  return version;
}

TEST(WarehouseTest, CatalogVersionMovesOnEveryMutationAndNeverRepeats) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("d").ok());
  ASSERT_TRUE(wh.CreateDataset("other").ok());
  std::set<uint64_t> seen;
  const auto expect_new = [&](const char* what) {
    EXPECT_TRUE(seen.insert(VersionOf(wh, "d")).second) << what;
  };
  PartitionSample sample;
  {
    AnySampler sampler(HrOptions().sampler, wh.ForkRng());
    sampler.AddBatch(Range(0, 100));
    sample = sampler.Finalize();
  }
  ASSERT_TRUE(wh.RollInAt("d", 0, sample, 1, 1).ok());
  expect_new("roll-in at");
  // A query and another dataset's roll-in change nothing.
  const uint64_t quiet = VersionOf(wh, "d");
  ASSERT_TRUE(wh.MergedSample("d", {0}).ok());
  ASSERT_TRUE(wh.RollIn("other", sample).ok());
  EXPECT_EQ(VersionOf(wh, "d"), quiet);
  // A keyed roll-in moves it once; its replay lands on the same partition
  // and moves nothing.
  ASSERT_TRUE(wh.RollIn("d", sample, 2, 2, /*close_key=*/7).ok());
  expect_new("keyed roll-in");
  const uint64_t keyed = VersionOf(wh, "d");
  ASSERT_TRUE(wh.RollIn("d", sample, 2, 2, /*close_key=*/7).ok());
  EXPECT_EQ(VersionOf(wh, "d"), keyed);
  ASSERT_TRUE(wh.RollIn("d", sample, 3, 3).ok());
  expect_new("roll-in");
  ASSERT_TRUE(wh.RollOut("d", 0).ok());
  expect_new("roll-out");
  RetentionPolicy keep_one;
  keep_one.keep_last_partitions = 1;
  ASSERT_TRUE(wh.RollIn("d", sample, 4, 4).ok());
  expect_new("roll-in before retention");
  ASSERT_FALSE(wh.ApplyRetention("d", keep_one, 10).value().empty());
  expect_new("retention");
  ASSERT_TRUE(wh.RollIn("d", sample, 5, 5).ok());
  const std::vector<PartitionInfo> parts = wh.ListPartitions("d").value();
  ASSERT_EQ(parts.size(), 2u);
  ASSERT_TRUE(wh.CompactPartitions("d", {parts[0].id, parts[1].id}).ok());
  expect_new("compaction");
  wh.InvalidateCaches();
  expect_new("cache invalidation");
  // Drop and re-create: the new dataset's versions are new values too.
  ASSERT_TRUE(wh.DropDataset("d").ok());
  uint64_t version = 0;
  EXPECT_TRUE(wh.MergedSampleBytes("d", {}, &version).status().IsNotFound());
  ASSERT_TRUE(wh.CreateDataset("d").ok());
  ASSERT_TRUE(wh.RollInAt("d", 0, sample, 1, 1).ok());
  expect_new("re-created");

  // The version the caller holds the answer of resolves nothing; any other
  // resolves the answer.
  const uint64_t current = VersionOf(wh, "d");
  const auto unchanged = wh.MergedSampleBytes("d", {0}, &version, current);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged.value(), nullptr);
  EXPECT_EQ(version, current);
  const auto changed = wh.MergedSampleBytes("d", {0}, &version, current - 1);
  ASSERT_TRUE(changed.ok());
  ASSERT_NE(changed.value(), nullptr);
  BinaryWriter expected;
  wh.MergedSample("d", {0}).value().SerializeTo(&expected);
  EXPECT_EQ(*changed.value(), expected.buffer());
}

TEST(CloseKeyTest, KeyedRollInIsIdempotentAndRefusesOtherContent) {
  Warehouse wh(HrOptions());
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  CompactHistogram h;
  for (Value v = 0; v < 10; ++v) h.Insert(v);
  const PartitionSample s = PartitionSample::MakeExhaustive(h, 10, 512);
  CompactHistogram other;
  other.Insert(99);
  const PartitionSample t = PartitionSample::MakeExhaustive(other, 1, 512);

  const auto first = wh.RollIn("ds", s, 1, 2, /*close_key=*/7);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(wh.ListPartitions("ds").value()[0].close_key, 7u);
  // The same close again lands on the same id and writes nothing.
  const auto again = wh.RollIn("ds", s, 1, 2, 7);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value(), first.value());
  EXPECT_EQ(wh.ListPartitions("ds").value().size(), 1u);
  // Other content under the key is refused, and the partition kept.
  EXPECT_TRUE(wh.RollIn("ds", t, 1, 2, 7).status().IsAlreadyExists());
  EXPECT_EQ(wh.ListPartitions("ds").value().size(), 1u);
  EXPECT_EQ(wh.GetSample("ds", first.value()).value().parent_size(), 10u);
  // Untagged roll-ins are never matched.
  ASSERT_TRUE(wh.RollIn("ds", s).ok());
  ASSERT_TRUE(wh.RollIn("ds", s).ok());
  EXPECT_EQ(wh.ListPartitions("ds").value().size(), 3u);
  // A rolled-out partition frees its key: the key rolls in anew.
  ASSERT_TRUE(wh.RollOut("ds", first.value()).ok());
  const auto anew = wh.RollIn("ds", t, 1, 2, 7);
  ASSERT_TRUE(anew.ok()) << anew.status().ToString();
  EXPECT_NE(anew.value(), first.value());
}

}  // namespace
}  // namespace sampwh
