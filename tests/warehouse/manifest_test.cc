#include <filesystem>

#include <gtest/gtest.h>

#include "src/util/serialization.h"
#include "src/warehouse/warehouse.h"
#include "src/workload/generators.h"
#include "tests/core/legacy_codec.h"

namespace sampwh {
namespace {

WarehouseOptions Options() {
  WarehouseOptions options;
  options.sampler.kind = SamplerKind::kHybridReservoir;
  options.sampler.footprint_bound_bytes = 512;
  return options;
}

std::vector<Value> Range(Value begin, Value end) {
  std::vector<Value> out;
  for (Value v = begin; v < end; ++v) out.push_back(v);
  return out;
}

TEST(CatalogSerializationTest, RoundTripsFullState) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("a").ok());
  ASSERT_TRUE(catalog.CreateDataset("b").ok());
  ASSERT_TRUE(catalog.AllocatePartitionId("a").ok());  // advance allocator
  PartitionInfo info;
  info.id = 0;
  info.parent_size = 1000;
  info.sample_size = 64;
  info.phase = SamplePhase::kReservoir;
  info.min_timestamp = 5;
  info.max_timestamp = 29;
  ASSERT_TRUE(catalog.AddPartition("a", info).ok());

  BinaryWriter writer;
  catalog.SerializeTo(&writer);
  BinaryReader reader(writer.buffer());
  const auto decoded = Catalog::DeserializeFrom(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().HasDataset("a"));
  EXPECT_TRUE(decoded.value().HasDataset("b"));
  const auto p = decoded.value().GetPartition("a", 0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().parent_size, 1000u);
  EXPECT_EQ(p.value().sample_size, 64u);
  EXPECT_EQ(p.value().phase, SamplePhase::kReservoir);
  EXPECT_EQ(p.value().min_timestamp, 5u);
  EXPECT_EQ(p.value().max_timestamp, 29u);
  // The allocator must not hand out ids that collide with restored ones.
  Catalog restored = std::move(decoded).value();
  EXPECT_EQ(restored.AllocatePartitionId("a").value(), 1u);
}

TEST(CatalogSerializationTest, RejectsGarbage) {
  BinaryReader reader("not a manifest");
  EXPECT_FALSE(Catalog::DeserializeFrom(&reader).ok());
}

TEST(ManifestTest, WarehouseSurvivesRestart) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_manifest").string();
  const std::string manifest = dir + "/MANIFEST";
  std::filesystem::remove_all(dir);

  std::vector<PartitionId> original_ids;
  {
    auto store = FileSampleStore::Open(dir);
    ASSERT_TRUE(store.ok());
    Warehouse wh(Options(), std::move(store).value());
    ASSERT_TRUE(wh.CreateDataset("events").ok());
    auto ids = wh.IngestBatch("events", Range(0, 6000), 3);
    ASSERT_TRUE(ids.ok());
    original_ids = ids.value();
    ASSERT_TRUE(wh.SaveManifest(manifest).ok());
  }
  // Reopen: catalog and samples all come back; queries work immediately.
  {
    auto store = FileSampleStore::Open(dir);
    ASSERT_TRUE(store.ok());
    auto restored =
        Warehouse::Restore(Options(), std::move(store).value(), manifest);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    Warehouse& wh = *restored.value();
    EXPECT_TRUE(wh.HasDataset("events"));
    const auto parts = wh.ListPartitions("events");
    ASSERT_TRUE(parts.ok());
    EXPECT_EQ(parts.value().size(), 3u);
    const auto merged = wh.MergedSampleAll("events");
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged.value().parent_size(), 6000u);
    // New ingests must not collide with restored partition ids.
    const auto new_ids = wh.IngestBatch("events", Range(6000, 7000), 1);
    ASSERT_TRUE(new_ids.ok());
    for (const PartitionId old_id : original_ids) {
      EXPECT_NE(new_ids.value()[0], old_id);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, Sws1StoreRestoresAndAnswersInSws2) {
  // A store an older build wrote: every sample file holds an SWS1 payload
  // (varint-pair histogram) inside the unchanged SWV2 envelope. It
  // restores, decodes to the same samples, and answers in SWS2 bytes —
  // the very bytes the store answered before its samples were rewritten.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_manifest_sws1")
          .string();
  const std::string manifest = dir + "/MANIFEST";
  std::filesystem::remove_all(dir);

  std::vector<PartitionId> ids;
  std::vector<PartitionSample> samples;
  std::string answer;
  {
    auto store = FileSampleStore::Open(dir);
    ASSERT_TRUE(store.ok());
    Warehouse wh(Options(), std::move(store).value());
    ASSERT_TRUE(wh.CreateDataset("events").ok());
    // Repeated values, so the histograms carry counts above 1.
    std::vector<Value> values;
    for (Value v = 0; v < 6000; ++v) values.push_back(v % 700);
    auto ingested = wh.IngestBatch("events", values, 3);
    ASSERT_TRUE(ingested.ok());
    ids = ingested.value();
    for (const PartitionId id : ids) {
      samples.push_back(wh.GetSample("events", id).value());
    }
    auto bytes = wh.MergedSampleBytes("events", ids);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    answer = *bytes.value();
    ASSERT_TRUE(wh.SaveManifest(manifest).ok());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::string path =
        dir + "/events." + std::to_string(ids[i]) + ".sample";
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    const std::string sws1 = legacy::EncodeSws1(samples[i]);
    ASSERT_EQ(SampleEncodingOf(sws1).value(), SampleEncoding::kSws1);
    ASSERT_TRUE(WriteFileAtomic(path, WrapSampleEnvelope(sws1)).ok());
  }

  auto store = FileSampleStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto restored =
      Warehouse::Restore(Options(), std::move(store).value(), manifest);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& wh = *restored.value();
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto sample = wh.GetSample("events", ids[i]);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    EXPECT_TRUE(sample.value().histogram() == samples[i].histogram());
    EXPECT_EQ(sample.value().phase(), samples[i].phase());
    EXPECT_EQ(sample.value().parent_size(), samples[i].parent_size());
    EXPECT_EQ(sample.value().footprint_bound_bytes(),
              samples[i].footprint_bound_bytes());
  }
  const auto bytes = wh.MergedSampleBytes("events", ids);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(SampleEncodingOf(*bytes.value()).value(), SampleEncoding::kSws2);
  EXPECT_EQ(*bytes.value(), answer);
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, RestoreDetectsMissingSample) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_manifest_missing")
          .string();
  const std::string manifest = dir + "/MANIFEST";
  std::filesystem::remove_all(dir);
  {
    auto store = FileSampleStore::Open(dir);
    ASSERT_TRUE(store.ok());
    Warehouse wh(Options(), std::move(store).value());
    ASSERT_TRUE(wh.CreateDataset("ds").ok());
    ASSERT_TRUE(wh.IngestBatch("ds", Range(0, 2000), 2).ok());
    ASSERT_TRUE(wh.SaveManifest(manifest).ok());
  }
  // Delete one sample file behind the manifest's back.
  std::filesystem::remove(dir + "/ds.0.sample");
  auto store = FileSampleStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(
      Warehouse::Restore(Options(), std::move(store).value(), manifest)
          .ok());
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, RestoreDetectsMetadataMismatch) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_manifest_mismatch")
          .string();
  const std::string manifest = dir + "/MANIFEST";
  std::filesystem::remove_all(dir);
  {
    auto store = FileSampleStore::Open(dir);
    ASSERT_TRUE(store.ok());
    Warehouse wh(Options(), std::move(store).value());
    ASSERT_TRUE(wh.CreateDataset("ds").ok());
    ASSERT_TRUE(wh.IngestBatch("ds", Range(0, 2000), 1).ok());
    ASSERT_TRUE(wh.SaveManifest(manifest).ok());
    // Overwrite the stored sample with one of a different parent size.
    CompactHistogram h;
    h.Insert(1);
    ASSERT_TRUE(
        wh.RollOut("ds", 0).ok());  // catalog forgets, store cleared
  }
  {
    auto store = FileSampleStore::Open(dir);
    ASSERT_TRUE(store.ok());
    CompactHistogram h;
    h.Insert(1);
    ASSERT_TRUE(store.value()
                    ->Put({"ds", 0},
                          PartitionSample::MakeReservoir(h, 99, 512))
                    .ok());
    EXPECT_FALSE(
        Warehouse::Restore(Options(), std::move(store).value(), manifest)
            .ok());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sampwh
