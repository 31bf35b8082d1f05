// Catalog log coverage: a warehouse with a manifest_path keeps its catalog
// as a snapshot plus a log of one record per mutation. Restoring must give
// back exactly the catalog an in-memory reference reaches under the same
// script — after compactions, with a torn last record, after a crash
// between the snapshot's rename and the log's truncation, and for a store
// written before the log existed. A mutation whose record cannot be
// appended must fail and leave nothing behind.

#include "src/warehouse/catalog_log.h"

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/warehouse/sample_store.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {
namespace {

constexpr uint64_t kSeed = 0xCA7A106ULL;

WarehouseOptions TestOptions() {
  WarehouseOptions options;
  options.sampler.kind = SamplerKind::kHybridReservoir;
  options.sampler.footprint_bound_bytes = 512;
  options.seed = kSeed;
  return options;
}

PartitionSample MakeSample(Value first, uint64_t count) {
  CompactHistogram h;
  for (uint64_t i = 0; i < count; ++i) {
    h.Insert(first + static_cast<Value>(i), 1);
  }
  return PartitionSample::MakeReservoir(h, count,
                                        count * kSingletonFootprintBytes);
}

PartitionInfo InfoOf(PartitionId id, const PartitionSample& sample,
                     uint64_t min_timestamp, uint64_t max_timestamp) {
  PartitionInfo info;
  info.id = id;
  info.parent_size = sample.parent_size();
  info.sample_size = sample.size();
  info.phase = sample.phase();
  info.min_timestamp = min_timestamp;
  info.max_timestamp = max_timestamp;
  return info;
}

std::string CatalogBytes(const Catalog& catalog) {
  return CatalogLog::EncodeSnapshot(catalog);
}

std::string ReadBytes(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFile(path, &bytes).ok()) << path;
  return bytes;
}

/// The catalog a restore of `manifest` would start from, as snapshot bytes.
std::string LoadedBytes(const std::string& manifest) {
  Result<Catalog> loaded = CatalogLog::Load(manifest);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.ok() ? CatalogBytes(loaded.value()) : std::string();
}

class CatalogLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("sampwh_catalog_log_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    manifest_ = dir_ + "/MANIFEST";
    log_ = CatalogLog::PathFor(manifest_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<FileSampleStore> OpenStore() {
    auto store = FileSampleStore::Open(dir_);
    EXPECT_TRUE(store.ok());
    return std::move(store).value();
  }

  WarehouseOptions DurableOptions() const {
    WarehouseOptions options = TestOptions();
    options.manifest_path = manifest_;
    return options;
  }

  uint64_t LogBytes() const {
    return std::filesystem::exists(log_) ? std::filesystem::file_size(log_)
                                         : 0;
  }

  void WriteLog(std::string_view bytes) const {
    ASSERT_TRUE(WriteFileAtomic(log_, bytes).ok());
  }

  std::string dir_;
  std::string manifest_;
  std::string log_;
};

/// Drives a warehouse and an in-memory reference catalog through the same
/// seeded script of creates, drops, roll-ins (allocated and explicit) and
/// roll-outs, including the ones the catalog refuses.
class Script {
 public:
  Script(Warehouse* warehouse, uint64_t seed)
      : warehouse_(warehouse), rng_(seed) {}

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) Step();
  }

  const Catalog& reference() const { return reference_; }

 private:
  void Step() {
    static const char* const kDatasets[] = {"a", "b", "c"};
    const DatasetId dataset = kDatasets[rng_.UniformInt(3)];
    const uint64_t op = rng_.UniformInt(100);
    const uint64_t ts = rng_.UniformInt(1000);
    const PartitionSample sample =
        MakeSample(static_cast<Value>(rng_.UniformInt(1000)),
                   1 + rng_.UniformInt(6));
    if (op < 8) {
      Same(warehouse_->CreateDataset(dataset),
           reference_.CreateDataset(dataset));
    } else if (op < 12) {
      Same(warehouse_->DropDataset(dataset), reference_.DropDataset(dataset));
    } else if (op < 50) {
      const Result<PartitionId> got =
          warehouse_->RollIn(dataset, sample, ts, ts + 7);
      const Result<PartitionId> want =
          reference_.AllocatePartitionId(dataset);
      ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
      if (!got.ok()) return;
      ASSERT_EQ(got.value(), want.value());
      ASSERT_TRUE(
          reference_.AddPartition(dataset, InfoOf(want.value(), sample, ts,
                                                  ts + 7))
              .ok());
    } else if (op < 70) {
      const PartitionId id = rng_.UniformInt(48);
      Same(warehouse_->RollInAt(dataset, id, sample, ts, ts).status(),
           reference_.AddPartition(dataset, InfoOf(id, sample, ts, ts)));
    } else {
      const PartitionId id = rng_.UniformInt(48);
      Same(warehouse_->RollOut(dataset, id),
           reference_.RemovePartition(dataset, id));
    }
  }

  static void Same(const Status& got, const Status& want) {
    EXPECT_EQ(got.code(), want.code())
        << got.ToString() << " vs " << want.ToString();
  }

  Warehouse* warehouse_;
  Pcg64 rng_;
  Catalog reference_;
};

TEST_F(CatalogLogTest, SeededScriptRestoresTheReferenceCatalog) {
  Warehouse warehouse(DurableOptions(), OpenStore());
  Script script(&warehouse, kSeed);
  int compactions = 0;
  uint64_t last_log_bytes = 0;
  for (int round = 0; round < 40; ++round) {
    script.Run(15);
    const uint64_t log_bytes = LogBytes();
    if (log_bytes < last_log_bytes) ++compactions;
    last_log_bytes = log_bytes;
    ASSERT_EQ(LoadedBytes(manifest_), CatalogBytes(script.reference()))
        << "round " << round;
  }
  // The script outgrew the snapshot more than once, and ended with edits
  // that only the log holds.
  EXPECT_GT(compactions, 1);
  EXPECT_GT(LogBytes(), 0u);

  // A full restore over the file store agrees with the reference too.
  auto restored = Warehouse::Restore(TestOptions(), OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const std::string saved = dir_ + "/saved";
  ASSERT_TRUE(restored.value()->SaveManifest(saved).ok());
  EXPECT_EQ(ReadBytes(saved), CatalogBytes(script.reference()));
}

TEST_F(CatalogLogTest, TornLastRecordRestoresTheEarlierPrefix) {
  Warehouse warehouse(DurableOptions(), OpenStore());
  Catalog reference;
  ASSERT_TRUE(warehouse.CreateDataset("a").ok());
  ASSERT_TRUE(reference.CreateDataset("a").ok());
  auto roll_in = [&](Value first) {
    const PartitionSample sample = MakeSample(first, 3);
    const Result<PartitionId> id = warehouse.RollIn("a", sample, first, first);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(
        reference.AddPartition("a", InfoOf(id.value(), sample, first, first))
            .ok());
  };
  for (Value v = 0; v < 30; ++v) roll_in(v * 10);
  ASSERT_TRUE(warehouse.SaveManifest(manifest_).ok());
  EXPECT_EQ(LogBytes(), 0u);

  // Two records, then the last one, all below the snapshot's size.
  ASSERT_TRUE(warehouse.RollOut("a", 4).ok());
  ASSERT_TRUE(reference.RemovePartition("a", 4).ok());
  roll_in(1000);
  const std::string prefix = CatalogBytes(reference);
  const uint64_t last_begins = LogBytes();
  roll_in(2000);
  const std::string full = CatalogBytes(reference);
  const std::string log = ReadBytes(log_);
  ASSERT_GT(log.size(), last_begins);
  ASSERT_GT(last_begins, 0u);

  for (size_t cut = last_begins; cut < log.size(); ++cut) {
    WriteLog(std::string_view(log).substr(0, cut));
    ASSERT_EQ(LoadedBytes(manifest_), prefix) << "cut at " << cut;
  }
  WriteLog(log);
  EXPECT_EQ(LoadedBytes(manifest_), full);
  // A bit flip in the last record is caught by its CRC like a tear.
  std::string rotted = log;
  rotted[last_begins + kFrameHeaderBytes + 1] ^= 0x10;
  WriteLog(rotted);
  EXPECT_EQ(LoadedBytes(manifest_), prefix);
}

TEST_F(CatalogLogTest, AppendAfterATornTailIsNotLost) {
  {
    Warehouse warehouse(DurableOptions(), OpenStore());
    ASSERT_TRUE(warehouse.CreateDataset("a").ok());
    for (Value v = 0; v < 20; ++v) {
      ASSERT_TRUE(warehouse.RollIn("a", MakeSample(v * 10, 3)).ok());
    }
  }
  // The last roll-in tore: half its record reached the log.
  const std::string log = ReadBytes(log_);
  ASSERT_GT(log.size(), 5u);
  WriteLog(std::string_view(log).substr(0, log.size() - 5));

  auto restored =
      Warehouse::RestoreWithRecovery(DurableOptions(), OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  ASSERT_EQ(warehouse.ListPartitions("a").value().size(), 19u);
  // The torn roll-in's id is handed out again and its orphan file
  // overwritten; the record lands where a replay reads it.
  const Result<PartitionId> id = warehouse.RollIn("a", MakeSample(5000, 2));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(id.value(), 19u);
  Result<Catalog> loaded = CatalogLog::Load(manifest_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().ListPartitions("a").value().size(), 20u);
  EXPECT_EQ(loaded.value().GetPartition("a", 19).value().parent_size, 2u);
}

TEST_F(CatalogLogTest, CrashBetweenSnapshotRenameAndLogTruncation) {
  Warehouse warehouse(DurableOptions(), OpenStore());
  Script script(&warehouse, kSeed + 1);
  for (int round = 0; round < 8; ++round) {
    script.Run(40);
    // Compact, then put the log back as a crash before its truncation
    // would have left it: every record in it is already in the snapshot.
    const std::string log = ReadBytes(log_);
    ASSERT_TRUE(warehouse.SaveManifest(manifest_).ok());
    EXPECT_EQ(LogBytes(), 0u);
    WriteLog(log);
    ASSERT_EQ(LoadedBytes(manifest_), CatalogBytes(script.reference()))
        << "round " << round;
  }
  // Records appended behind the stale ones replay on top of them.
  script.Run(40);
  EXPECT_EQ(LoadedBytes(manifest_), CatalogBytes(script.reference()));

  auto restored = Warehouse::Restore(TestOptions(), OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const std::string saved = dir_ + "/saved";
  ASSERT_TRUE(restored.value()->SaveManifest(saved).ok());
  EXPECT_EQ(ReadBytes(saved), CatalogBytes(script.reference()));
}

TEST_F(CatalogLogTest, GrowthPerRollInIsFlatInCatalogSize) {
  // Explicit ids from 1000 keep every id varint two bytes long, so the
  // record of the measured roll-in is the same at both sizes.
  std::vector<uint64_t> growth;
  std::vector<uint64_t> snapshot;
  for (const uint64_t cataloged : {uint64_t{10}, uint64_t{1000}}) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    Warehouse warehouse(DurableOptions());
    ASSERT_TRUE(warehouse.CreateDataset("ds").ok());
    const PartitionSample sample = MakeSample(0, 4);
    for (uint64_t i = 0; i < cataloged; ++i) {
      ASSERT_TRUE(warehouse.RollInAt("ds", 1000 + i, sample, 7, 9).ok());
    }
    ASSERT_TRUE(warehouse.SaveManifest(manifest_).ok());
    ASSERT_EQ(LogBytes(), 0u);
    ASSERT_TRUE(
        warehouse.RollInAt("ds", 1000 + cataloged, sample, 7, 9).ok());
    growth.push_back(LogBytes());
    snapshot.push_back(std::filesystem::file_size(manifest_));
  }
  EXPECT_EQ(growth[0], growth[1]);
  EXPECT_LE(growth[0], 40u);
  // What the rewrite after every mutation used to cost at 1,000.
  EXPECT_GT(snapshot[1], 100 * growth[1]);
}

TEST_F(CatalogLogTest, ManifestOnlyStoreRestoresUnchanged) {
  // A store written before the catalog log: a MANIFEST and no log.
  {
    Warehouse warehouse(TestOptions(), OpenStore());
    ASSERT_TRUE(warehouse.CreateDataset("a").ok());
    ASSERT_TRUE(warehouse.CreateDataset("b").ok());
    for (Value v = 0; v < 6; ++v) {
      ASSERT_TRUE(warehouse.RollIn(v % 2 ? "a" : "b", MakeSample(v, 3)).ok());
    }
    ASSERT_TRUE(warehouse.RollOut("a", 1).ok());
    ASSERT_TRUE(warehouse.SaveManifest(manifest_).ok());
  }
  ASSERT_FALSE(std::filesystem::exists(log_));
  const std::string snapshot = ReadBytes(manifest_);

  auto restored =
      Warehouse::RestoreWithRecovery(DurableOptions(), OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  EXPECT_TRUE(restored.value().dropped_partitions.empty());
  const std::string saved = dir_ + "/saved";
  ASSERT_TRUE(warehouse.SaveManifest(saved).ok());
  EXPECT_EQ(ReadBytes(saved), snapshot);
  // Restoring writes nothing: the snapshot is untouched and no log appears
  // until the first mutation.
  EXPECT_EQ(ReadBytes(manifest_), snapshot);
  EXPECT_FALSE(std::filesystem::exists(log_));

  ASSERT_TRUE(warehouse.RollOut("b", 0).ok());
  EXPECT_GT(LogBytes(), 0u);
  Result<Catalog> loaded = CatalogLog::Load(manifest_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().ListPartitions("b").value().size(), 2u);
  EXPECT_EQ(loaded.value().ListPartitions("a").value().size(), 2u);
}

TEST_F(CatalogLogTest, FailedAppendLeavesNothingBehind) {
  struct Case {
    const char* name;
    std::function<Status(Warehouse&)> mutate;
  };
  const PartitionSample sample = MakeSample(100, 3);
  const std::vector<Case> cases = {
      {"RollInAt",
       [&](Warehouse& w) { return w.RollInAt("ds", 10, sample).status(); }},
      {"RollIn", [&](Warehouse& w) { return w.RollIn("ds", sample).status(); }},
      {"RollOut", [](Warehouse& w) { return w.RollOut("ds", 0); }},
      {"CreateDataset", [](Warehouse& w) { return w.CreateDataset("other"); }},
      {"DropDataset", [](Warehouse& w) { return w.DropDataset("ds"); }},
  };
  std::vector<PartitionId> stored;
  for (PartitionId id = 0; id < 10; ++id) stored.push_back(id);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::filesystem::remove_all(dir_);
    Warehouse warehouse(DurableOptions(), OpenStore());
    ASSERT_TRUE(warehouse.CreateDataset("ds").ok());
    for (const PartitionId id : stored) {
      ASSERT_TRUE(warehouse.RollInAt("ds", id, MakeSample(id, 3)).ok());
    }
    // An empty log under a snapshot far larger than a record: the failing
    // mutation is not preceded by a compaction.
    ASSERT_TRUE(warehouse.SaveManifest(manifest_).ok());

    // A directory where the log should be: every append fails.
    std::filesystem::create_directory(log_);
    EXPECT_FALSE(c.mutate(warehouse).ok());

    // Nothing changed: the catalog, the stored samples, the sample cache.
    EXPECT_TRUE(warehouse.HasDataset("ds"));
    EXPECT_FALSE(warehouse.HasDataset("other"));
    const auto parts = warehouse.ListPartitions("ds");
    ASSERT_TRUE(parts.ok());
    EXPECT_EQ(parts.value().size(), stored.size());
    EXPECT_EQ(warehouse.store_for_testing()->List("ds").value(), stored);
    const SampleCache* cache = warehouse.sample_cache_for_testing();
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->Peek("ds", cache->CurrentView("ds").epoch, 10), nullptr);
    EXPECT_TRUE(warehouse.GetSample("ds", 0).ok());

    // Once the log can be written again — here over bytes a short append
    // could have left — the next mutation compacts first, so its record
    // is not appended behind them, and the catalog on disk is the
    // warehouse's.
    std::filesystem::remove(log_);
    WriteLog("torn");
    ASSERT_TRUE(warehouse.RollInAt("ds", 11, sample).ok());
    const std::string saved = dir_ + "/saved";
    ASSERT_TRUE(warehouse.SaveManifest(saved).ok());
    EXPECT_EQ(LoadedBytes(manifest_), ReadBytes(saved));
  }
}

TEST(CatalogEditTest, RoundTripsAndRejectsGarbage) {
  PartitionInfo info;
  info.id = 300;
  info.parent_size = 1 << 20;
  info.sample_size = 77;
  info.phase = SamplePhase::kBernoulli;
  info.min_timestamp = 5;
  info.max_timestamp = 9;
  for (const CatalogEdit& edit :
       {CatalogEdit::CreateDataset("x"), CatalogEdit::DropDataset("x"),
        CatalogEdit::AddPartition("x", info),
        CatalogEdit::RemovePartition("x", 300)}) {
    const std::string payload = edit.Serialize();
    const Result<CatalogEdit> decoded = CatalogEdit::Deserialize(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().Serialize(), payload);
    EXPECT_FALSE(CatalogEdit::Deserialize(payload + "z").ok());
    EXPECT_FALSE(
        CatalogEdit::Deserialize(payload.substr(0, payload.size() - 1)).ok());
  }
  std::string unknown = CatalogEdit::CreateDataset("x").Serialize();
  unknown[0] = 9;
  EXPECT_TRUE(CatalogEdit::Deserialize(unknown).status().IsCorruption());
}

TEST(CatalogEditTest, ReplayingTwiceEqualsReplayingOnce) {
  PartitionInfo p;
  p.id = 3;
  const std::vector<CatalogEdit> log = {
      CatalogEdit::CreateDataset("a"),    CatalogEdit::AddPartition("a", p),
      CatalogEdit::DropDataset("a"),      CatalogEdit::CreateDataset("a"),
      CatalogEdit::CreateDataset("b"),    CatalogEdit::AddPartition("b", p),
      CatalogEdit::RemovePartition("b", 3)};
  Catalog once;
  for (const CatalogEdit& edit : log) edit.ApplyTo(&once);
  Catalog twice = once;
  for (const CatalogEdit& edit : log) edit.ApplyTo(&twice);
  EXPECT_EQ(CatalogBytes(twice), CatalogBytes(once));
  EXPECT_TRUE(once.ListPartitions("a").value().empty());
  EXPECT_EQ(once.AllocatePartitionId("b").value(), 4u);
}

}  // namespace
}  // namespace sampwh
