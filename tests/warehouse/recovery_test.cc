// Crash-recovery tests of the warehouse restore path: a manifest plus a
// file store that a crash left damaged (torn destination files, orphan
// temps, missing samples) must reopen through RestoreWithRecovery into a
// warehouse whose catalog and store agree and whose surviving partitions
// answer queries. The strict Restore() keeps its fail-fast contract.

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/testing/fault_env.h"
#include "src/util/serialization.h"
#include "src/warehouse/checkpoint.h"
#include "src/warehouse/sample_store.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {
namespace {

std::vector<Value> Range(Value begin, Value end) {
  std::vector<Value> out;
  for (Value v = begin; v < end; ++v) out.push_back(v);
  return out;
}

WarehouseOptions TestOptions() {
  WarehouseOptions options;
  options.sampler.kind = SamplerKind::kHybridReservoir;
  options.sampler.footprint_bound_bytes = 512;
  options.seed = 0x4443543EULL;
  return options;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("sampwh_recovery_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    manifest_ = dir_ + "/manifest";
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<FileSampleStore> OpenStore() {
    auto store = FileSampleStore::Open(dir_);
    EXPECT_TRUE(store.ok());
    return std::move(store).value();
  }

  /// The store directory reached through `env_`, so a case can arm faults
  /// with `injector_`.
  std::unique_ptr<SampleStore> OpenFaultStore() {
    EXPECT_TRUE(env_.CreateDir(dir_).ok());
    return std::make_unique<SampleStore>(&env_, dir_);
  }

  /// A warehouse with 4 partitions in dataset "events", manifest saved.
  /// Its store runs over `env_`.
  std::unique_ptr<Warehouse> BuildPopulated() {
    auto warehouse =
        std::make_unique<Warehouse>(TestOptions(), OpenFaultStore());
    EXPECT_TRUE(warehouse->CreateDataset("events").ok());
    EXPECT_TRUE(
        warehouse->IngestBatch("events", Range(0, 4000), 4).ok());
    EXPECT_TRUE(warehouse->SaveManifest(manifest_).ok());
    return warehouse;
  }

  std::string dir_;
  std::string manifest_;
  std::shared_ptr<FaultInjector> injector_ =
      std::make_shared<FaultInjector>(3);
  FaultEnv env_{Env::Default(), injector_};
};

// The ISSUE acceptance scenario: a Put crashes mid-write (torn file), the
// process restarts, and recovery quarantines the torn sample, reconciles
// the catalog with the store, and keeps the survivors queryable.
TEST_F(RecoveryTest, TornWriteThenRestartRecovers) {
  std::unique_ptr<Warehouse> warehouse = BuildPopulated();
  const PartitionId victim =
      warehouse->ListPartitions("events").value().front().id;
  const PartitionSample sample =
      warehouse->GetSample("events", victim).value();

  // Crash a rewrite of the victim's sample: the destination file holds a
  // prefix of the intended bytes.
  injector_->Arm(kFaultSitePutWrite, FaultKind::kTornWrite);
  EXPECT_TRUE(warehouse->store_for_testing()
                  ->Put({"events", victim}, sample)
                  .IsIOError());
  warehouse.reset();  // the "crash": all in-memory state is gone

  auto restored = Warehouse::RestoreWithRecovery(TestOptions(), OpenStore(),
                                                 manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().report.quarantined.size(), 1u);
  ASSERT_EQ(restored.value().dropped_partitions.size(), 1u);
  EXPECT_EQ(restored.value().dropped_partitions[0].partition, victim);

  // Catalog and store agree: the victim is gone from both, each surviving
  // partition is cataloged AND readable, and union queries work.
  Warehouse& recovered = *restored.value().warehouse;
  const auto partitions = recovered.ListPartitions("events");
  ASSERT_TRUE(partitions.ok());
  EXPECT_EQ(partitions.value().size(), 3u);
  for (const PartitionInfo& p : partitions.value()) {
    EXPECT_NE(p.id, victim);
    EXPECT_TRUE(recovered.GetSample("events", p.id).ok());
  }
  const auto merged = recovered.MergedSampleAll("events");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged.value().Validate().ok());
  // The torn file is preserved aside for inspection.
  EXPECT_TRUE(std::filesystem::exists(
      dir_ + "/events." + std::to_string(victim) + ".sample.quarantine"));
}

// A read that still fails after the store's retries says nothing about
// the bytes behind it. Whether it hits the recovery scan of a sample or a
// checkpoint, or the catalog reconcile that follows, the restore fails and
// destroys nothing; once the fault clears, the next restore serves every
// partition and the checkpoint.
TEST_F(RecoveryTest, TransientReadFaultsFailTheRestoreAndLoseNothing) {
  std::unique_ptr<Warehouse> warehouse = BuildPopulated();
  IngestCheckpoint ckpt;
  ckpt.next_sequence = 4000;
  ckpt.rng = Pcg64(4000).SaveState();
  const std::string payload = ckpt.Serialize();
  ASSERT_TRUE(
      warehouse->store_for_testing()->PutCheckpoint("events", payload).ok());
  warehouse.reset();

  struct Arming {
    const char* site;
    uint64_t skip;
  };
  // The scan reads the 4 samples, then the checkpoint; the reconcile then
  // reads each sample again.
  for (const Arming& arming : {Arming{kFaultSiteGetRead, 0},
                               Arming{kFaultSiteCheckpointRead, 0},
                               Arming{kFaultSiteGetRead, 4}}) {
    injector_->Arm(arming.site, FaultKind::kIOError, /*count=*/1000,
                   arming.skip);
    auto failed = Warehouse::RestoreWithRecovery(TestOptions(),
                                                 OpenFaultStore(), manifest_);
    EXPECT_TRUE(failed.status().IsIOError())
        << arming.site << " skip " << arming.skip << ": "
        << failed.status().ToString();
    injector_->Disarm(arming.site);
  }

  auto restored = Warehouse::RestoreWithRecovery(TestOptions(), OpenStore(),
                                                 manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value().report.quarantined.empty());
  EXPECT_TRUE(restored.value().report.quarantined_checkpoints.empty());
  EXPECT_TRUE(restored.value().report.missing_partitions.empty());
  EXPECT_TRUE(restored.value().dropped_partitions.empty());
  Warehouse& recovered = *restored.value().warehouse;
  const auto partitions = recovered.ListPartitions("events");
  ASSERT_TRUE(partitions.ok());
  EXPECT_EQ(partitions.value().size(), 4u);
  for (const PartitionInfo& p : partitions.value()) {
    EXPECT_TRUE(recovered.GetSample("events", p.id).ok());
  }
  const auto stored = recovered.store_for_testing()->GetCheckpoint("events");
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(stored.value(), payload);
}

TEST_F(RecoveryTest, StrictRestoreStillFailsOnTornFile) {
  std::unique_ptr<Warehouse> warehouse = BuildPopulated();
  const PartitionId victim =
      warehouse->ListPartitions("events").value().front().id;
  const PartitionSample sample =
      warehouse->GetSample("events", victim).value();
  injector_->Arm(kFaultSitePutWrite, FaultKind::kTornWrite);
  EXPECT_FALSE(
      warehouse->store_for_testing()->Put({"events", victim}, sample).ok());
  warehouse.reset();

  EXPECT_FALSE(
      Warehouse::Restore(TestOptions(), OpenStore(), manifest_).ok());
}

TEST_F(RecoveryTest, CrashBeforeRenameLeavesDataIntact) {
  std::unique_ptr<Warehouse> warehouse = BuildPopulated();
  const PartitionId victim =
      warehouse->ListPartitions("events").value().front().id;
  const PartitionSample sample =
      warehouse->GetSample("events", victim).value();
  // Crash BEFORE the rename: the previous version of the sample survives;
  // recovery only has to sweep the orphan temp.
  injector_->Arm(kFaultSitePutWrite, FaultKind::kCrashBeforeRename);
  EXPECT_TRUE(warehouse->store_for_testing()
                  ->Put({"events", victim}, sample)
                  .IsIOError());
  warehouse.reset();

  auto restored = Warehouse::RestoreWithRecovery(TestOptions(), OpenStore(),
                                                 manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().report.removed_temps.size(), 1u);
  EXPECT_TRUE(restored.value().report.quarantined.empty());
  EXPECT_TRUE(restored.value().dropped_partitions.empty());
  EXPECT_EQ(
      restored.value().warehouse->ListPartitions("events").value().size(),
      4u);
  EXPECT_TRUE(restored.value().warehouse->GetSample("events", victim).ok());
}

TEST_F(RecoveryTest, MissingSampleFileIsDroppedFromCatalog) {
  std::unique_ptr<Warehouse> warehouse = BuildPopulated();
  const PartitionId victim =
      warehouse->ListPartitions("events").value().back().id;
  warehouse.reset();
  ASSERT_TRUE(std::filesystem::remove(dir_ + "/events." +
                                      std::to_string(victim) + ".sample"));

  auto restored = Warehouse::RestoreWithRecovery(TestOptions(), OpenStore(),
                                                 manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value().report.missing_partitions.size(), 1u);
  EXPECT_EQ(restored.value().report.missing_partitions[0].partition, victim);
  ASSERT_EQ(restored.value().dropped_partitions.size(), 1u);
  EXPECT_EQ(restored.value().dropped_partitions[0].partition, victim);
  EXPECT_EQ(
      restored.value().warehouse->ListPartitions("events").value().size(),
      3u);
  EXPECT_TRUE(
      restored.value().warehouse->MergedSampleAll("events").ok());
}

TEST_F(RecoveryTest, MetadataMismatchIsDroppedFromCatalog) {
  std::unique_ptr<Warehouse> warehouse = BuildPopulated();
  const PartitionId victim =
      warehouse->ListPartitions("events").value().front().id;
  warehouse.reset();
  // Overwrite the victim with a decodable sample whose metadata disagrees
  // with the manifest (different parent size): recovery must not serve it.
  {
    std::unique_ptr<FileSampleStore> store = OpenStore();
    Warehouse scratch(TestOptions(), std::move(store));
    ASSERT_TRUE(scratch.CreateDataset("scratch").ok());
    ASSERT_TRUE(scratch.IngestBatch("scratch", Range(0, 17), 1).ok());
    const PartitionSample other = scratch.GetSample("scratch", 0).value();
    ASSERT_TRUE(
        scratch.store_for_testing()->Put({"events", victim}, other).ok());
    ASSERT_TRUE(scratch.store_for_testing()->Delete({"scratch", 0}).ok());
  }

  auto restored = Warehouse::RestoreWithRecovery(TestOptions(), OpenStore(),
                                                 manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value().dropped_partitions.size(), 1u);
  EXPECT_EQ(restored.value().dropped_partitions[0].partition, victim);
  // The impostor's bytes were deleted too: catalog and store agree.
  EXPECT_TRUE(restored.value()
                  .warehouse->store_for_testing()
                  ->Get({"events", victim})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(restored.value().warehouse->MergedSampleAll("events").ok());
}

// A second recovery pass over a file whose ".quarantine" name is already
// taken (the same partition went bad twice across restarts) must preserve
// BOTH pieces of evidence, not overwrite the first.
TEST_F(RecoveryTest, RepeatedQuarantineNeverOverwritesEvidence) {
  std::unique_ptr<Warehouse> warehouse = BuildPopulated();
  const PartitionId victim =
      warehouse->ListPartitions("events").value().front().id;
  warehouse.reset();
  const std::string path =
      dir_ + "/events." + std::to_string(victim) + ".sample";

  const auto corrupt_and_recover = [&](const std::string& bytes) {
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f << bytes;
    }
    std::unique_ptr<FileSampleStore> store = OpenStore();
    auto report = store->Recover();
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.value().quarantined.size(), 1u);
  };

  corrupt_and_recover("first corruption");
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
  corrupt_and_recover("second corruption");
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine.1"));

  // QuarantineDestination keeps climbing past every claimed suffix.
  EXPECT_EQ(QuarantineDestination(path), path + ".quarantine.2");
}

TEST_F(RecoveryTest, CleanStoreRecoversToIdenticalWarehouse) {
  std::unique_ptr<Warehouse> warehouse = BuildPopulated();
  const PartitionSample before =
      warehouse->MergedSampleAll("events").value();
  warehouse.reset();

  auto restored = Warehouse::RestoreWithRecovery(TestOptions(), OpenStore(),
                                                 manifest_);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored.value().report.quarantined.empty());
  EXPECT_TRUE(restored.value().report.removed_temps.empty());
  EXPECT_TRUE(restored.value().report.missing_partitions.empty());
  EXPECT_TRUE(restored.value().dropped_partitions.empty());
  EXPECT_EQ(restored.value().report.scanned, 4u);
  EXPECT_EQ(
      restored.value().warehouse->ListPartitions("events").value().size(),
      4u);
}

}  // namespace
}  // namespace sampwh
