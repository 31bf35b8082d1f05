#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "src/util/serialization.h"
#include "src/warehouse/warehouse.h"
#include "src/workload/generators.h"
#include "tests/warehouse/older_layout.h"

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

TEST(ManifestTest, EveryManifestBitFlipAndTruncationIsCorruption) {
  // A small stored MANIFEST over one dataset of four file-store
  // partitions. Every single-bit flip and every truncation of it fails
  // RestoreWithRecovery with Corruption before anything is reconciled:
  // no partition is dropped and no sample file is deleted or changed. An
  // unchecked snapshot decoded such damage into wrong partition metadata,
  // and reconciliation then deleted the healthy samples that disagreed.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sampwh_manifest_flip_" + std::to_string(::getpid())))
          .string();
  const std::string manifest = dir + "/MANIFEST";
  std::filesystem::remove_all(dir);
  {
    auto store = FileSampleStore::Open(dir);
    ASSERT_TRUE(store.ok());
    Warehouse wh(Options(), std::move(store).value());
    ASSERT_TRUE(wh.CreateDataset("d").ok());
    ASSERT_TRUE(wh.IngestBatch("d", Range(0, 4000), 4).ok());
    ASSERT_TRUE(wh.SaveManifest(manifest).ok());
  }
  const std::map<std::string, std::string> before = older_layout::DirectoryContents(dir);
  ASSERT_EQ(before.size(), 5u);  // MANIFEST and four samples
  const std::string good = before.at("MANIFEST");
  ASSERT_TRUE(Warehouse::RestoreWithRecovery(
                  Options(), FileSampleStore::Open(dir).value(), manifest)
                  .ok());
  ASSERT_EQ(older_layout::DirectoryContents(dir), before);

  const auto expect_refused = [&](const std::string& damaged,
                                  const std::string& what) {
    ASSERT_TRUE(WriteFileAtomic(manifest, damaged).ok());
    auto restored = Warehouse::RestoreWithRecovery(
        Options(), FileSampleStore::Open(dir).value(), manifest);
    EXPECT_TRUE(restored.status().IsCorruption())
        << what << ": " << restored.status().ToString();
    std::map<std::string, std::string> after = older_layout::DirectoryContents(dir);
    EXPECT_EQ(after.at("MANIFEST"), damaged) << what;
    after["MANIFEST"] = good;
    EXPECT_EQ(after, before) << what;
  };
  for (size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = good;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      expect_refused(flipped, "byte " + std::to_string(byte) + " bit " +
                                  std::to_string(bit));
    }
  }
  for (size_t keep = 0; keep < good.size(); ++keep) {
    expect_refused(good.substr(0, keep), "kept " + std::to_string(keep));
  }
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
