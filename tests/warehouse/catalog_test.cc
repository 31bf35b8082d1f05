#include "src/warehouse/catalog.h"

#include <gtest/gtest.h>

#include "src/warehouse/catalog_log.h"

namespace sampwh {
namespace {

PartitionInfo Info(PartitionId id, uint64_t parent = 100,
                   uint64_t sample = 10, uint64_t min_ts = 0,
                   uint64_t max_ts = 0) {
  PartitionInfo info;
  info.id = id;
  info.parent_size = parent;
  info.sample_size = sample;
  info.phase = SamplePhase::kReservoir;
  info.min_timestamp = min_ts;
  info.max_timestamp = max_ts;
  return info;
}

TEST(CatalogTest, CreateAndDropDataset) {
  Catalog catalog;
  EXPECT_TRUE(catalog.CreateDataset("ds").ok());
  EXPECT_TRUE(catalog.HasDataset("ds"));
  EXPECT_TRUE(catalog.CreateDataset("ds").IsAlreadyExists());
  EXPECT_TRUE(catalog.DropDataset("ds").ok());
  EXPECT_FALSE(catalog.HasDataset("ds"));
  EXPECT_TRUE(catalog.DropDataset("ds").IsNotFound());
}

TEST(CatalogTest, CreateValidatesId) {
  Catalog catalog;
  EXPECT_TRUE(catalog.CreateDataset("bad id").IsInvalidArgument());
}

TEST(CatalogTest, AllocatePartitionIdsAreSequential) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  EXPECT_EQ(catalog.AllocatePartitionId("ds").value(), 0u);
  EXPECT_EQ(catalog.AllocatePartitionId("ds").value(), 1u);
  EXPECT_TRUE(catalog.AllocatePartitionId("ghost").status().IsNotFound());
}

TEST(CatalogTest, AddAndRemovePartition) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  EXPECT_TRUE(catalog.AddPartition("ds", Info(0)).ok());
  EXPECT_TRUE(catalog.AddPartition("ds", Info(0)).IsAlreadyExists());
  EXPECT_TRUE(catalog.GetPartition("ds", 0).ok());
  EXPECT_TRUE(catalog.RemovePartition("ds", 0).ok());
  EXPECT_TRUE(catalog.GetPartition("ds", 0).status().IsNotFound());
  EXPECT_TRUE(catalog.RemovePartition("ds", 0).IsNotFound());
}

TEST(CatalogTest, ExternalIdsAdvanceAllocator) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Info(41)).ok());
  EXPECT_EQ(catalog.AllocatePartitionId("ds").value(), 42u);
}

TEST(CatalogTest, DatasetInfoAggregates) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Info(0, 100, 10)).ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Info(1, 250, 25)).ok());
  const auto info = catalog.GetDatasetInfo("ds");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().num_partitions, 2u);
  EXPECT_EQ(info.value().total_parent_size, 350u);
  EXPECT_EQ(info.value().total_sample_size, 35u);
}

TEST(CatalogTest, ListPartitionsSortedById) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Info(7)).ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Info(3)).ok());
  const auto parts = catalog.ListPartitions("ds");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts.value().size(), 2u);
  EXPECT_EQ(parts.value()[0].id, 3u);
  EXPECT_EQ(parts.value()[1].id, 7u);
}

TEST(CatalogTest, TimeRangeQuery) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Info(0, 100, 10, 0, 9)).ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Info(1, 100, 10, 10, 19)).ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Info(2, 100, 10, 20, 29)).ok());
  const auto middle = catalog.PartitionsInTimeRange("ds", 10, 19);
  ASSERT_TRUE(middle.ok());
  EXPECT_EQ(middle.value(), (std::vector<PartitionId>{1}));
  const auto spanning = catalog.PartitionsInTimeRange("ds", 5, 25);
  ASSERT_TRUE(spanning.ok());
  EXPECT_EQ(spanning.value(), (std::vector<PartitionId>{0, 1, 2}));
  const auto none = catalog.PartitionsInTimeRange("ds", 100, 200);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST(CatalogTest, ListDatasets) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("b").ok());
  ASSERT_TRUE(catalog.CreateDataset("a").ok());
  EXPECT_EQ(catalog.ListDatasets(), (std::vector<DatasetId>{"a", "b"}));
}

PartitionInfo Keyed(PartitionId id, uint64_t close_key) {
  PartitionInfo info = Info(id);
  info.close_key = close_key;
  return info;
}

TEST(CloseKeyTest, AddAndRemoveMaintainTheIndex) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  ASSERT_TRUE(catalog.CreateDataset("other").ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Keyed(0, 0)).ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Keyed(1, 7)).ok());
  EXPECT_EQ(catalog.PartitionWithCloseKey("ds", 7), PartitionId{1});
  EXPECT_EQ(catalog.PartitionWithCloseKey("ds", 0), std::nullopt);
  EXPECT_EQ(catalog.PartitionWithCloseKey("other", 7), std::nullopt);
  EXPECT_EQ(catalog.PartitionWithCloseKey("ghost", 7), std::nullopt);
  // A key names one partition of its dataset; other datasets have their
  // own keys.
  EXPECT_TRUE(catalog.AddPartition("ds", Keyed(2, 7)).IsAlreadyExists());
  EXPECT_EQ(catalog.ListPartitions("ds").value().size(), 2u);
  ASSERT_TRUE(catalog.AddPartition("other", Keyed(0, 7)).ok());
  // Untagged partitions share key 0 without being indexed.
  ASSERT_TRUE(catalog.AddPartition("ds", Keyed(3, 0)).ok());
  ASSERT_TRUE(catalog.RemovePartition("ds", 1).ok());
  EXPECT_EQ(catalog.PartitionWithCloseKey("ds", 7), std::nullopt);
  ASSERT_TRUE(catalog.AddPartition("ds", Keyed(4, 7)).ok());
  EXPECT_EQ(catalog.PartitionWithCloseKey("ds", 7), PartitionId{4});
}

TEST(CloseKeyTest, SnapshotAndLogReplayRebuildTheIndex) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Keyed(0, 3)).ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Keyed(1, 4)).ok());
  ASSERT_TRUE(catalog.RemovePartition("ds", 0).ok());

  BinaryWriter writer;
  catalog.SerializeTo(&writer);
  BinaryReader reader(writer.buffer());
  auto decoded = Catalog::DeserializeFrom(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().PartitionWithCloseKey("ds", 4), PartitionId{1});
  EXPECT_EQ(decoded.value().PartitionWithCloseKey("ds", 3), std::nullopt);
  EXPECT_EQ(decoded.value().ListPartitions("ds").value()[0].close_key, 4u);

  Catalog replayed;
  for (const CatalogEdit& edit :
       {CatalogEdit::CreateDataset("ds"),
        CatalogEdit::AddPartition("ds", Keyed(0, 3)),
        CatalogEdit::AddPartition("ds", Keyed(1, 4)),
        CatalogEdit::RemovePartition("ds", 0)}) {
    auto round = CatalogEdit::Deserialize(edit.Serialize());
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    round.value().ApplyTo(&replayed);
  }
  EXPECT_EQ(replayed.PartitionWithCloseKey("ds", 4), PartitionId{1});
  EXPECT_EQ(replayed.PartitionWithCloseKey("ds", 3), std::nullopt);
}

TEST(CloseKeyTest, ADuplicateKeyInASnapshotIsCorruption) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Keyed(0, 3)).ok());
  ASSERT_TRUE(catalog.AddPartition("ds", Keyed(1, 5)).ok());
  BinaryWriter writer;
  catalog.SerializeTo(&writer);
  std::string bytes = writer.Release();
  // The last byte is partition 1's close key varint.
  ASSERT_EQ(bytes.back(), '\x05');
  bytes.back() = '\x03';
  BinaryReader reader(bytes);
  EXPECT_TRUE(Catalog::DeserializeFrom(&reader).status().IsCorruption());
}

}  // namespace
}  // namespace sampwh
