// The crash-safe resumable-ingestion protocol end to end: the checkpoint
// record round-trips, both store backends keep generational checkpoints
// that survive torn writes, and a StreamIngestor killed at an arbitrary
// point — including after any write of a partition close — resumes from
// its checkpoint and, fed an at-least-once replay of the source stream,
// produces rolled-in samples bit-identical to an uninterrupted run.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/testing/fault_env.h"
#include "src/util/serialization.h"
#include "src/warehouse/checkpoint.h"
#include "src/warehouse/partitioner.h"
#include "src/warehouse/sample_store.h"
#include "src/warehouse/stream_ingestor.h"
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
  options.seed = 0x434b505431ULL;
  return options;
}

/// A structurally valid checkpoint payload (deep-verifiable: no open
/// partition).
std::string MinimalCheckpointPayload(uint64_t next_sequence) {
  IngestCheckpoint ckpt;
  ckpt.next_sequence = next_sequence;
  ckpt.rng = Pcg64(next_sequence).SaveState();
  return ckpt.Serialize();
}

/// Serialized bytes of the samples of `ids` in `dataset`, in order.
std::vector<std::string> SampleBytesOf(Warehouse& warehouse,
                                       const DatasetId& dataset,
                                       const std::vector<PartitionId>& ids) {
  std::vector<std::string> out;
  for (const PartitionId id : ids) {
    auto sample = warehouse.GetSample(dataset, id);
    EXPECT_TRUE(sample.ok()) << sample.status().ToString();
    if (!sample.ok()) return out;
    BinaryWriter writer;
    sample.value().SerializeTo(&writer);
    out.push_back(std::move(writer).Release());
  }
  return out;
}

/// Serialized bytes of every stored sample of `dataset`, ascending by
/// partition id — the bit-identity yardstick.
std::vector<std::string> SampleBytes(Warehouse& warehouse,
                                     const DatasetId& dataset) {
  auto parts = warehouse.ListPartitions(dataset);
  EXPECT_TRUE(parts.ok());
  if (!parts.ok()) return {};
  std::vector<PartitionId> ids;
  for (const PartitionInfo& p : parts.value()) ids.push_back(p.id);
  return SampleBytesOf(warehouse, dataset, ids);
}

// --- IngestCheckpoint record ----------------------------------------------

TEST(IngestCheckpointTest, SerializeDeserializeRoundTrip) {
  IngestCheckpoint ckpt;
  ckpt.next_sequence = 123456789;
  ckpt.partitions_started = 7;
  ckpt.created_unix_micros = 1754550000000000ULL;
  ckpt.rng = Pcg64(42).SaveState();
  ckpt.rolled_in = {3, 5, 8};
  ckpt.progress.elements = 0;  // no open partition: sampler_state empty
  ckpt.progress.first_timestamp = 100;
  ckpt.progress.last_timestamp = 900;
  ckpt.next_close_key = 9;

  auto round = IngestCheckpoint::Deserialize(ckpt.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const IngestCheckpoint& got = round.value();
  EXPECT_EQ(got.next_sequence, ckpt.next_sequence);
  EXPECT_EQ(got.partitions_started, ckpt.partitions_started);
  EXPECT_EQ(got.created_unix_micros, ckpt.created_unix_micros);
  EXPECT_EQ(got.rng.state_hi, ckpt.rng.state_hi);
  EXPECT_EQ(got.rng.state_lo, ckpt.rng.state_lo);
  EXPECT_EQ(got.rng.inc_hi, ckpt.rng.inc_hi);
  EXPECT_EQ(got.rng.inc_lo, ckpt.rng.inc_lo);
  EXPECT_EQ(got.rolled_in, ckpt.rolled_in);
  EXPECT_EQ(got.progress.elements, ckpt.progress.elements);
  EXPECT_EQ(got.progress.first_timestamp, ckpt.progress.first_timestamp);
  EXPECT_EQ(got.progress.last_timestamp, ckpt.progress.last_timestamp);
  EXPECT_EQ(got.next_close_key, ckpt.next_close_key);
}

TEST(IngestCheckpointTest, DeserializeRejectsDamage) {
  const std::string good = MinimalCheckpointPayload(42);
  ASSERT_TRUE(IngestCheckpoint::Deserialize(good).ok());
  EXPECT_FALSE(IngestCheckpoint::Deserialize("").ok());
  EXPECT_FALSE(IngestCheckpoint::Deserialize("not a checkpoint").ok());
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(IngestCheckpoint::Deserialize(good.substr(0, len)).ok())
        << "accepted a record truncated to " << len << " bytes";
  }
  EXPECT_FALSE(IngestCheckpoint::Deserialize(good + '\x01').ok());
}

TEST(IngestCheckpointTest, OpenPartitionRequiresSamplerState) {
  IngestCheckpoint ckpt;
  ckpt.progress.elements = 10;  // claims an open partition...
  ckpt.sampler_state.clear();   // ...but carries no sampler to resume it
  EXPECT_TRUE(
      IngestCheckpoint::Deserialize(ckpt.Serialize()).status().IsCorruption());
}

TEST(IngestCheckpointTest, VerifyRejectsUndedecodableEmbeddedRecords) {
  IngestCheckpoint ckpt;
  ckpt.rng = Pcg64(1).SaveState();
  ASSERT_TRUE(VerifyCheckpointPayload(ckpt.Serialize()).ok());
  ckpt.progress.elements = 5;
  ckpt.sampler_state = "junk that is not a sampler-state record";
  EXPECT_FALSE(VerifyCheckpointPayload(ckpt.Serialize()).ok());
}

// --- Store-level checkpoint persistence -----------------------------------

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process AND per test: parallel ctest may run other processes'
    // WAL/snapshot cases concurrently, and a shared directory would be
    // remove_all'd mid-test.
    dir_ = (std::filesystem::temp_directory_path() /
            ("sampwh_ckpt_" + std::to_string(::getpid()) + "_" +
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

  /// The same directory reached through `env` (a FaultEnv over the real
  /// filesystem), which must outlive the store.
  std::unique_ptr<SampleStore> OpenStoreOver(Env* env) {
    EXPECT_TRUE(env->CreateDir(dir_).ok());
    return std::make_unique<SampleStore>(env, dir_);
  }

  std::string dir_;
  std::string manifest_;
};

void ExerciseCheckpointCrud(SampleStore& store) {
  EXPECT_TRUE(store.GetCheckpointChain("events").status().IsNotFound());
  EXPECT_TRUE(store.DeleteCheckpoint("events").IsNotFound());
  EXPECT_TRUE(store.ListCheckpoints().value().empty());

  const std::string first = MinimalCheckpointPayload(100);
  const std::string second = MinimalCheckpointPayload(200);
  ASSERT_TRUE(store.PutCheckpoint("events", first).ok());
  EXPECT_EQ(store.GetCheckpointChain("events").value().snapshot, first);
  ASSERT_TRUE(store.PutCheckpoint("events", second).ok());
  EXPECT_EQ(store.GetCheckpointChain("events").value().snapshot, second);
  ASSERT_TRUE(store.PutCheckpoint("orders", first).ok());

  const auto datasets = store.ListCheckpoints();
  ASSERT_TRUE(datasets.ok());
  EXPECT_EQ(datasets.value(),
            (std::vector<DatasetId>{"events", "orders"}));

  EXPECT_TRUE(store.DeleteCheckpoint("events").ok());
  EXPECT_TRUE(store.GetCheckpointChain("events").status().IsNotFound());
  EXPECT_EQ(store.ListCheckpoints().value(),
            (std::vector<DatasetId>{"orders"}));

  const StoreStats stats = store.GetStoreStats();
  EXPECT_EQ(stats.checkpoints_written, 3u);
  EXPECT_GE(stats.checkpoints_restored, 2u);
}

TEST_F(CheckpointStoreTest, CrudOnFileBackend) {
  auto store = OpenStore();
  ExerciseCheckpointCrud(*store);
}

TEST(CheckpointStoreInMemoryTest, CrudOnInMemoryBackend) {
  InMemorySampleStore store;
  ExerciseCheckpointCrud(store);
}

// The store in `dir` of `base`, reached through a FaultEnv.
void ExerciseTornWriteFallback(Env* base, const std::string& dir) {
  auto injector = std::make_shared<FaultInjector>(17);
  FaultEnv env(base, injector);
  ASSERT_TRUE(env.CreateDir(dir).ok());
  SampleStore store(&env, dir);
  const std::string good = MinimalCheckpointPayload(100);
  const std::string newer = MinimalCheckpointPayload(200);
  ASSERT_TRUE(store.PutCheckpoint("events", good).ok());

  injector->Arm(kFaultSiteCheckpointWrite, FaultKind::kTornWrite);
  EXPECT_TRUE(store.PutCheckpoint("events", newer).IsIOError());
  env.Restart();

  // The torn newest generation must not mask the previous good one.
  const auto got = store.GetCheckpointChain("events");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().snapshot, good);
  EXPECT_GE(store.GetStoreStats().quarantines, 1u);

  // And a subsequent write supersedes everything.
  ASSERT_TRUE(store.PutCheckpoint("events", newer).ok());
  EXPECT_EQ(store.GetCheckpointChain("events").value().snapshot, newer);
}

TEST_F(CheckpointStoreTest, TornWriteFallsBackToPreviousGeneration) {
  ExerciseTornWriteFallback(Env::Default(), dir_);
}

TEST(CheckpointStoreInMemoryTest, TornWriteFallsBackToPreviousGeneration) {
  MemEnv mem;
  ExerciseTornWriteFallback(&mem, "mem");
}

TEST_F(CheckpointStoreTest, TransientWriteFaultIsRetried) {
  auto injector = std::make_shared<FaultInjector>(19);
  FaultEnv env(Env::Default(), injector);
  auto store = OpenStoreOver(&env);
  injector->Arm(kFaultSiteCheckpointWrite, FaultKind::kIOError, 1);
  ASSERT_TRUE(store->PutCheckpoint("events",
                                   MinimalCheckpointPayload(1)).ok());
  const StoreStats stats = store->GetStoreStats();
  EXPECT_GE(stats.retries_attempted, 1u);
  EXPECT_EQ(stats.retries_exhausted, 0u);
}

TEST_F(CheckpointStoreTest, RecoverQuarantinesCorruptCheckpointFile) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(
        store->PutCheckpoint("events", MinimalCheckpointPayload(7)).ok());
  }
  // Bit-rot the only checkpoint generation on disk.
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".ckpt") path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xff');
  }

  auto store = OpenStore();
  auto report = store->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().quarantined_checkpoints.size(), 1u);
  EXPECT_TRUE(store->GetCheckpointChain("events").status().IsNotFound());
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
  EXPECT_GE(store->GetStoreStats().quarantines, 1u);
}

// --- Delta records, WAL framing and chains --------------------------------

std::string CloseDeltaPayload(uint64_t sequence) {
  CheckpointDeltaRecord rec;
  rec.checkpoint_payload = MinimalCheckpointPayload(sequence);
  return rec.Serialize();
}

TEST(CheckpointDeltaTest, RecordRoundTripAndDamageRejection) {
  const std::string close = CloseDeltaPayload(77);
  auto close_round = CheckpointDeltaRecord::Deserialize(close);
  ASSERT_TRUE(close_round.ok()) << close_round.status().ToString();
  EXPECT_EQ(close_round.value().kind, CheckpointDeltaKind::kClosePending);
  EXPECT_EQ(close_round.value().checkpoint_payload,
            MinimalCheckpointPayload(77));
  EXPECT_TRUE(VerifyCheckpointDeltaPayload(close).ok());

  EXPECT_FALSE(CheckpointDeltaRecord::Deserialize("").ok());
  for (size_t len = 0; len < close.size(); ++len) {
    EXPECT_FALSE(CheckpointDeltaRecord::Deserialize(close.substr(0, len)).ok())
        << "accepted a record truncated to " << len << " bytes";
  }
  // The kind byte follows the magic and the version: any other kind,
  // such as the watermark-only records of earlier builds, is refused.
  std::string other_kind = close;
  ASSERT_EQ(other_kind[5], 2);
  other_kind[5] = 1;
  EXPECT_TRUE(CheckpointDeltaRecord::Deserialize(other_kind)
                  .status()
                  .IsCorruption());
  // A close record whose embedded checkpoint is garbage passes the shallow
  // decode only; deep verification must reject it.
  CheckpointDeltaRecord bad_close;
  bad_close.checkpoint_payload = "junk that is not a checkpoint";
  EXPECT_FALSE(VerifyCheckpointDeltaPayload(bad_close.Serialize()).ok());
}

TEST(CheckpointDeltaTest, WalParseStopsAtTearOrBitRot) {
  std::string wal;
  const std::vector<std::string> payloads = {CloseDeltaPayload(10),
                                             CloseDeltaPayload(20),
                                             CloseDeltaPayload(30)};
  for (const std::string& p : payloads) AppendFrame(&wal, p);

  CheckpointWalParse whole = ParseCheckpointWal(wal);
  EXPECT_EQ(whole.records, payloads);
  EXPECT_EQ(whole.valid_bytes, wal.size());
  EXPECT_FALSE(whole.torn_tail);

  // A tear anywhere inside the last frame keeps the first two records.
  CheckpointWalParse torn = ParseCheckpointWal(
      std::string_view(wal).substr(0, wal.size() - 3));
  EXPECT_EQ(torn.records.size(), 2u);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.valid_bytes,
            2 * kFrameHeaderBytes + payloads[0].size() +
                payloads[1].size());

  // Bit rot in the middle record: CRC stops the scan at record one.
  std::string rotted = wal;
  rotted[kFrameHeaderBytes + payloads[0].size() +
         kFrameHeaderBytes + 2] ^= 0x40;
  CheckpointWalParse bit = ParseCheckpointWal(rotted);
  EXPECT_EQ(bit.records.size(), 1u);
  EXPECT_TRUE(bit.torn_tail);
}

TEST(CheckpointDeltaTest, WalParseAtEveryCutAndFlip) {
  const std::vector<std::string> payloads = {CloseDeltaPayload(10),
                                             CloseDeltaPayload(20),
                                             CloseDeltaPayload(30)};
  std::string wal;
  std::vector<size_t> ends;  // ends[k]: length of the first k+1 records
  for (const std::string& p : payloads) {
    AppendFrame(&wal, p);
    ends.push_back(wal.size());
  }
  // The parse of `bytes` must be exactly the first `k` records.
  const auto expect_prefix = [&](std::string_view bytes, size_t k,
                                 const std::string& where) {
    const CheckpointWalParse parse = ParseCheckpointWal(bytes);
    const size_t valid = k == 0 ? 0 : ends[k - 1];
    ASSERT_EQ(parse.records.size(), k) << where;
    for (size_t r = 0; r < k; ++r) ASSERT_EQ(parse.records[r], payloads[r]);
    ASSERT_EQ(parse.valid_bytes, valid) << where;
    ASSERT_EQ(parse.torn_tail, bytes.size() > valid) << where;
  };

  // Every prefix keeps the whole records it holds and nothing else.
  for (size_t cut = 0; cut <= wal.size(); ++cut) {
    size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    expect_prefix(std::string_view(wal).substr(0, cut), whole,
                  "cut " + std::to_string(cut));
  }

  // Any damaged byte — length, CRC or payload — ends the scan before the
  // record that holds it.
  for (size_t at = 0; at < wal.size(); ++at) {
    size_t record = 0;
    while (ends[record] <= at) ++record;
    for (int mask = 1; mask < 256; ++mask) {
      std::string damaged = wal;
      damaged[at] = static_cast<char>(damaged[at] ^ mask);
      expect_prefix(damaged, record,
                    "byte " + std::to_string(at) + " ^ " +
                        std::to_string(mask));
    }
  }
}

TEST(CheckpointDeltaTest, ResolveChainPrefersNewestStateCompleteRecord) {
  CheckpointChain chain;
  chain.generation = 3;
  chain.snapshot = MinimalCheckpointPayload(100);

  auto snapshot_only = ResolveCheckpointChain(chain);
  ASSERT_TRUE(snapshot_only.ok());
  EXPECT_EQ(snapshot_only.value().next_sequence, 100u);

  // Every record is state-complete: each overrides what came before it.
  chain.deltas.push_back(CloseDeltaPayload(150));
  auto with_close = ResolveCheckpointChain(chain);
  ASSERT_TRUE(with_close.ok());
  EXPECT_EQ(with_close.value().next_sequence, 150u);

  chain.deltas.push_back(CloseDeltaPayload(180));
  auto newest = ResolveCheckpointChain(chain);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest.value().next_sequence, 180u);
}

void ExerciseWalAppendAndChain(SampleStore& store) {
  // No snapshot generation yet: nothing to own the WAL.
  EXPECT_TRUE(store
                  .AppendCheckpointDeltas("events",
                                          {CloseDeltaPayload(1)})
                  .IsFailedPrecondition());

  const std::string snap = MinimalCheckpointPayload(100);
  ASSERT_TRUE(store.PutCheckpoint("events", snap).ok());
  const std::vector<std::string> batch = {CloseDeltaPayload(150),
                                          CloseDeltaPayload(180)};
  ASSERT_TRUE(store.AppendCheckpointDeltas("events", batch).ok());

  auto chain = store.GetCheckpointChain("events");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain.value().snapshot, snap);
  EXPECT_EQ(chain.value().deltas, batch);
  EXPECT_FALSE(chain.value().torn_tail);
  auto resolved = ResolveCheckpointChain(chain.value());
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().next_sequence, 180u);

  // Rotation: a new snapshot generation starts a fresh, empty WAL.
  const std::string snap2 = MinimalCheckpointPayload(300);
  ASSERT_TRUE(store.PutCheckpoint("events", snap2).ok());
  auto rotated = store.GetCheckpointChain("events");
  ASSERT_TRUE(rotated.ok());
  EXPECT_GT(rotated.value().generation, chain.value().generation);
  EXPECT_EQ(rotated.value().snapshot, snap2);
  EXPECT_TRUE(rotated.value().deltas.empty());

  const StoreStats stats = store.GetStoreStats();
  EXPECT_EQ(stats.wal_appends, 1u);
  EXPECT_EQ(stats.wal_records_appended, 2u);
}

TEST_F(CheckpointStoreTest, WalAppendAndChainOnFileBackend) {
  auto store = OpenStore();
  ExerciseWalAppendAndChain(*store);
}

TEST(CheckpointStoreInMemoryTest, WalAppendAndChainOnInMemoryBackend) {
  InMemorySampleStore store;
  ExerciseWalAppendAndChain(store);
}

// The store in `dir` of `base`, reached through a FaultEnv.
void ExerciseTornWalAppendRecovery(Env* base, const std::string& dir) {
  auto injector = std::make_shared<FaultInjector>(23);
  FaultEnv env(base, injector);
  ASSERT_TRUE(env.CreateDir(dir).ok());
  SampleStore store(&env, dir);
  ASSERT_TRUE(
      store.PutCheckpoint("events", MinimalCheckpointPayload(100)).ok());
  const std::vector<std::string> good = {CloseDeltaPayload(150)};
  ASSERT_TRUE(store.AppendCheckpointDeltas("events", good).ok());

  // A single-record batch torn mid-append always cuts inside the frame.
  injector->Arm(kFaultSiteWalAppend, FaultKind::kTornWrite);
  EXPECT_TRUE(store.AppendCheckpointDeltas("events", {CloseDeltaPayload(180)})
                  .IsIOError());
  env.Restart();

  // Reads already skip the torn tail...
  auto chain = store.GetCheckpointChain("events");
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain.value().deltas, good);
  EXPECT_TRUE(chain.value().torn_tail);

  // ...and Recover() truncates it to the last whole CRC-verified record.
  auto report = store.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().truncated_wal_tails.size(), 1u);
  EXPECT_GE(store.GetStoreStats().wal_tails_truncated, 1u);
  auto truncated = store.GetCheckpointChain("events");
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated.value().deltas, good);
  EXPECT_FALSE(truncated.value().torn_tail);

  // The truncated WAL is clean: appends extend it again.
  ASSERT_TRUE(
      store.AppendCheckpointDeltas("events", {CloseDeltaPayload(200)}).ok());
  auto extended = store.GetCheckpointChain("events");
  ASSERT_TRUE(extended.ok());
  auto resolved = ResolveCheckpointChain(extended.value());
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().next_sequence, 200u);
}

TEST_F(CheckpointStoreTest, TornWalAppendIsTruncatedOnRecover) {
  ExerciseTornWalAppendRecovery(Env::Default(), dir_);
}

TEST(CheckpointStoreInMemoryTest, TornWalAppendIsTruncatedOnRecover) {
  MemEnv mem;
  ExerciseTornWalAppendRecovery(&mem, "mem");
}

// A torn tail that Recover() cannot cut must fail the scan, never be
// reported as cut: later appends would land behind the tear, where the
// WAL parse never reaches them.
void ExerciseFailedWalTruncation(Env* base, const std::string& dir) {
  auto injector = std::make_shared<FaultInjector>(37);
  FaultEnv env(base, injector);
  ASSERT_TRUE(env.CreateDir(dir).ok());
  SampleStore store(&env, dir);
  store.SetRetryPolicy(
      {.max_attempts = 3, .initial_backoff = std::chrono::microseconds(1)});
  ASSERT_TRUE(
      store.PutCheckpoint("events", MinimalCheckpointPayload(100)).ok());
  const std::vector<std::string> good = {CloseDeltaPayload(150)};
  ASSERT_TRUE(store.AppendCheckpointDeltas("events", good).ok());
  injector->Arm(kFaultSiteWalAppend, FaultKind::kTornWrite);
  EXPECT_TRUE(store.AppendCheckpointDeltas("events", {CloseDeltaPayload(180)})
                  .IsIOError());
  env.Restart();

  // Every rewrite of the WAL fails, past the retry budget.
  injector->Arm(kFaultSiteWalTruncate, FaultKind::kIOError, /*count=*/3);
  EXPECT_TRUE(store.Recover().status().IsIOError());
  EXPECT_EQ(store.GetStoreStats().wal_tails_truncated, 0u);
  auto torn = store.GetCheckpointChain("events");
  ASSERT_TRUE(torn.ok());
  EXPECT_TRUE(torn.value().torn_tail);

  // Once the fault clears, the next pass cuts the tail.
  auto report = store.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().truncated_wal_tails.size(), 1u);
  EXPECT_EQ(store.GetStoreStats().wal_tails_truncated, 1u);
  auto cut = store.GetCheckpointChain("events");
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut.value().deltas, good);
  EXPECT_FALSE(cut.value().torn_tail);
}

TEST_F(CheckpointStoreTest, FailedWalTruncationFailsRecover) {
  ExerciseFailedWalTruncation(Env::Default(), dir_);
}

TEST(CheckpointStoreInMemoryTest, FailedWalTruncationFailsRecover) {
  MemEnv mem;
  ExerciseFailedWalTruncation(&mem, "mem");
}

TEST_F(CheckpointStoreTest, RecoverQuarantinesOrphanedWal) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(
        store->PutCheckpoint("events", MinimalCheckpointPayload(7)).ok());
    ASSERT_TRUE(store
                    ->AppendCheckpointDeltas(
                        "events", {CloseDeltaPayload(9)})
                    .ok());
  }
  // A WAL whose generation has no snapshot: the crash artifact of a torn
  // PutCheckpoint that already lost its .ckpt file.
  const std::string orphan = dir_ + "/events.999.wal";
  {
    std::ofstream f(orphan, std::ios::binary);
    std::string wal;
    AppendFrame(&wal, CloseDeltaPayload(11));
    f.write(wal.data(), static_cast<std::streamsize>(wal.size()));
  }

  auto store = OpenStore();
  auto report = store->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().orphaned_wals.size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(orphan + ".quarantine"));

  // The live generation's WAL survived untouched.
  auto chain = store->GetCheckpointChain("events");
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain.value().deltas.size(), 1u);
}

TEST_F(CheckpointStoreTest, CorruptSnapshotQuarantinesItsWal) {
  auto store = OpenStore();
  const std::string old_snap = MinimalCheckpointPayload(100);
  const std::string new_snap = MinimalCheckpointPayload(200);
  ASSERT_TRUE(store->PutCheckpoint("events", old_snap).ok());
  ASSERT_TRUE(store->PutCheckpoint("events", new_snap).ok());
  ASSERT_TRUE(store
                  ->AppendCheckpointDeltas("events",
                                           {CloseDeltaPayload(250)})
                  .ok());
  // Bit-rot the newest snapshot; its WAL must fall with it — the deltas
  // extend a state we can no longer read, not the older generation.
  std::string newest_ckpt;
  uint64_t newest_gen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() != ".ckpt") continue;
    const std::string stem = entry.path().stem().string();
    const uint64_t gen =
        std::stoull(stem.substr(stem.find_last_of('.') + 1));
    if (gen > newest_gen) {
      newest_gen = gen;
      newest_ckpt = entry.path().string();
    }
  }
  ASSERT_FALSE(newest_ckpt.empty());
  {
    std::fstream f(newest_ckpt,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xff');
  }

  auto chain = store->GetCheckpointChain("events");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain.value().snapshot, old_snap);
  EXPECT_TRUE(chain.value().deltas.empty());
  EXPECT_GE(store->GetStoreStats().quarantines, 1u);
}

// --- Ingestor resume: exactly-once replay ---------------------------------

class ResumableIngestTest : public CheckpointStoreTest {
 protected:
  WarehouseOptions DurableOptions() {
    WarehouseOptions options = TestOptions();
    options.manifest_path = manifest_;
    return options;
  }

  /// The uninterrupted reference: same seed, same stream, no crash.
  std::vector<std::string> ReferenceRun(const std::vector<Value>& values,
                                        uint64_t partition_elements) {
    Warehouse reference(TestOptions());
    EXPECT_TRUE(reference.CreateDataset("events").ok());
    StreamIngestor ingestor(&reference, "events",
                            MakeCountPartitioner(partition_elements));
    EXPECT_TRUE(ingestor.AppendBatch(values).ok());
    EXPECT_TRUE(ingestor.Flush().ok());
    return SampleBytes(reference, "events");
  }
};

TEST_F(ResumableIngestTest, KillMidStreamResumeReplayBitIdentical) {
  const std::vector<Value> values = Range(0, 800);
  const std::vector<std::string> want = ReferenceRun(values, 250);
  ASSERT_EQ(want.size(), 4u);

  // Run 1: ingest 520 elements with checkpoints at the closes at 250 and
  // 500, then "crash" (all in-memory state destroyed, no Flush).
  {
    Warehouse warehouse(DurableOptions(), OpenStore());
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({});
    for (uint64_t i = 0; i < 520; i += 40) {
      ASSERT_TRUE(
          ingestor
              .AppendBatchAt(i, std::span<const Value>(values).subspan(i, 40))
              .ok());
    }
    ASSERT_EQ(ingestor.next_sequence(), 520u);
  }

  // Restart: recover the warehouse, resume the ingestor, and replay the
  // WHOLE stream from sequence 0 — an at-least-once source. Every batch
  // below the watermark must be acknowledged and skipped.
  auto restored = Warehouse::RestoreWithRecovery(DurableOptions(),
                                                 OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                        MakeCountPartitioner(250));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  StreamIngestor& ingestor = *resumed.value();
  EXPECT_GT(ingestor.next_sequence(), 0u);
  EXPECT_LE(ingestor.next_sequence(), 520u);

  for (uint64_t i = 0; i < values.size(); i += 40) {
    ASSERT_TRUE(
        ingestor
            .AppendBatchAt(i, std::span<const Value>(values).subspan(i, 40))
            .ok())
        << "replay batch at " << i;
  }
  EXPECT_EQ(ingestor.next_sequence(), values.size());
  ASSERT_TRUE(ingestor.Flush().ok());

  EXPECT_EQ(SampleBytes(warehouse, "events"), want);
}

TEST_F(ResumableIngestTest, DuplicatesAckedGapsRejected) {
  Warehouse warehouse(DurableOptions(), OpenStore());
  ASSERT_TRUE(warehouse.CreateDataset("events").ok());
  StreamIngestor ingestor(&warehouse, "events", nullptr);
  const std::vector<Value> values = Range(0, 100);

  // A gap is refused outright.
  EXPECT_TRUE(ingestor.AppendBatchAt(10, values).IsFailedPrecondition());
  EXPECT_EQ(ingestor.next_sequence(), 0u);

  ASSERT_TRUE(ingestor.AppendBatchAt(0, values).ok());
  EXPECT_EQ(ingestor.next_sequence(), 100u);
  EXPECT_EQ(ingestor.open_elements(), 100u);

  // A full redelivery is acknowledged without touching the sampler.
  ASSERT_TRUE(ingestor.AppendBatchAt(0, values).ok());
  EXPECT_EQ(ingestor.next_sequence(), 100u);
  EXPECT_EQ(ingestor.open_elements(), 100u);

  // A straddling batch applies only its unapplied suffix.
  const std::vector<Value> straddle = Range(60, 140);
  ASSERT_TRUE(ingestor.AppendBatchAt(60, straddle).ok());
  EXPECT_EQ(ingestor.next_sequence(), 140u);
  EXPECT_EQ(ingestor.open_elements(), 140u);
}

TEST_F(ResumableIngestTest, ResumeWithoutCheckpointIsNotFound) {
  Warehouse warehouse(DurableOptions(), OpenStore());
  ASSERT_TRUE(warehouse.CreateDataset("events").ok());
  EXPECT_TRUE(StreamIngestor::Resume(&warehouse, "events", nullptr)
                  .status()
                  .IsNotFound());
}

// Crash INSIDE a close, its roll-in failed: nothing of the close is
// durable, so resume replays the partition from the previous resume point
// (the stream's first record) and rolls it in once.
TEST_F(ResumableIngestTest, CrashBeforeRollInReplaysPendingPartition) {
  const std::vector<Value> values = Range(0, 400);
  const std::vector<std::string> want = ReferenceRun(values, 250);
  ASSERT_EQ(want.size(), 2u);

  {
    auto injector = std::make_shared<FaultInjector>(23);
    FaultEnv env(Env::Default(), injector);
    Warehouse warehouse(DurableOptions(), OpenStoreOver(&env));
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({});
    ASSERT_TRUE(
        ingestor.AppendBatchAt(0, std::span<const Value>(values).first(250))
            .ok());
    // The next element triggers the close; its RollIn dies on exhausted
    // IO retries, so the close leaves nothing durable.
    injector->Arm(kFaultSitePutWrite, FaultKind::kIOError, 100);
    EXPECT_TRUE(ingestor
                    .AppendBatchAt(250, std::span<const Value>(values)
                                            .subspan(250, 1))
                    .IsIOError());
    EXPECT_TRUE(ingestor.rolled_in().empty());
  }

  auto restored = Warehouse::RestoreWithRecovery(DurableOptions(),
                                                 OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                        MakeCountPartitioner(250));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // Resumed from the stream's first record: nothing rolled in yet.
  EXPECT_EQ(resumed.value()->next_sequence(), 0u);
  ASSERT_TRUE(resumed.value()->rolled_in().empty());
  ASSERT_TRUE(warehouse.ListPartitions("events").value().empty());

  for (uint64_t i = 0; i < values.size(); i += 80) {
    ASSERT_TRUE(
        resumed.value()
            ->AppendBatchAt(i, std::span<const Value>(values).subspan(i, 80))
            .ok());
  }
  ASSERT_TRUE(resumed.value()->Flush().ok());
  EXPECT_EQ(SampleBytes(warehouse, "events"), want);
}

// Crash after the roll-in, with the close's resume-point record lost: the
// catalog already holds the partition under its close key, so the replayed
// close lands on it instead of rolling it in twice.
TEST_F(ResumableIngestTest, CheckpointBLossAdoptsCompletedRollIn) {
  const std::vector<Value> values = Range(0, 400);
  const std::vector<std::string> want = ReferenceRun(values, 250);
  ASSERT_EQ(want.size(), 2u);

  std::vector<PartitionId> first_run;
  {
    auto injector = std::make_shared<FaultInjector>(29);
    FaultEnv env(Env::Default(), injector);
    Warehouse warehouse(DurableOptions(), OpenStoreOver(&env));
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({});
    ASSERT_TRUE(
        ingestor.AppendBatchAt(0, std::span<const Value>(values).first(250))
            .ok());
    // Fail the close's record. It is best effort, so the append itself
    // succeeds and the roll-in completes.
    injector->Arm(kFaultSiteWalAppend, FaultKind::kIOError, 100);
    ASSERT_TRUE(ingestor
                    .AppendBatchAt(250, std::span<const Value>(values)
                                            .subspan(250, 1))
                    .ok());
    EXPECT_EQ(injector->FiredCount(kFaultSiteWalAppend), 1u);
    ASSERT_EQ(ingestor.rolled_in().size(), 1u);
    first_run = ingestor.rolled_in();
  }

  auto restored = Warehouse::RestoreWithRecovery(DurableOptions(),
                                                 OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                        MakeCountPartitioner(250));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // Resumed before the close, whose partition stays in the catalog.
  EXPECT_EQ(resumed.value()->next_sequence(), 0u);
  ASSERT_TRUE(resumed.value()->rolled_in().empty());
  ASSERT_EQ(warehouse.ListPartitions("events").value().size(), 1u);

  for (uint64_t i = 0; i < values.size(); i += 80) {
    ASSERT_TRUE(
        resumed.value()
            ->AppendBatchAt(i, std::span<const Value>(values).subspan(i, 80))
            .ok());
  }
  ASSERT_TRUE(resumed.value()->Flush().ok());
  // The replayed close landed on the id its first attempt took.
  ASSERT_EQ(resumed.value()->rolled_in().size(), 2u);
  EXPECT_EQ(resumed.value()->rolled_in()[0], first_run[0]);
  EXPECT_EQ(SampleBytes(warehouse, "events"), want);
}

// Another writer rolls a partition into the dataset between a restart and
// the stream's resume. A resume that guessed which partition was its own
// from the id allocator would take that foreign partition for the close the
// crash interrupted, and acknowledge the close's elements as rolled in.
TEST_F(ResumableIngestTest, ForeignRollInIsNeverAdopted) {
  const std::vector<Value> values = Range(0, 400);
  const std::vector<std::string> want = ReferenceRun(values, 250);
  ASSERT_EQ(want.size(), 2u);

  {
    auto injector = std::make_shared<FaultInjector>(23);
    FaultEnv env(Env::Default(), injector);
    Warehouse warehouse(DurableOptions(), OpenStoreOver(&env));
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({});
    ASSERT_TRUE(
        ingestor.AppendBatchAt(0, std::span<const Value>(values).first(250))
            .ok());
    injector->Arm(kFaultSitePutWrite, FaultKind::kIOError, 100);
    EXPECT_TRUE(ingestor
                    .AppendBatchAt(250, std::span<const Value>(values)
                                            .subspan(250, 1))
                    .IsIOError());
  }

  auto restored = Warehouse::RestoreWithRecovery(DurableOptions(),
                                                 OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  // The foreign roll-in, before the stream's resume.
  AnySampler foreign(TestOptions().sampler, Pcg64(7));
  const std::vector<Value> foreign_values = Range(1000, 1003);
  foreign.AddBatch(foreign_values);
  auto foreign_id = warehouse.RollIn("events", foreign.Finalize());
  ASSERT_TRUE(foreign_id.ok()) << foreign_id.status().ToString();

  auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                        MakeCountPartitioner(250));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (uint64_t i = 0; i < values.size(); i += 80) {
    ASSERT_TRUE(
        resumed.value()
            ->AppendBatchAt(i, std::span<const Value>(values).subspan(i, 80))
            .ok());
  }
  ASSERT_TRUE(resumed.value()->Flush().ok());

  const std::vector<PartitionId>& own = resumed.value()->rolled_in();
  EXPECT_EQ(std::count(own.begin(), own.end(), foreign_id.value()), 0);
  EXPECT_EQ(warehouse.ListPartitions("events").value().size(), 3u);
  EXPECT_EQ(SampleBytesOf(warehouse, "events", own), want);
  auto kept = warehouse.GetSample("events", foreign_id.value());
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept.value().parent_size(), 3u);
}

// A fresh stream over a dataset that holds an earlier stream's streamed
// partitions. After a restart the fresh stream forks the same RNG stream
// the earlier one did, so on the same source its samples are the earlier
// stream's, byte for byte; its closes still roll in partitions of their
// own.
TEST_F(ResumableIngestTest, FreshStreamAdoptsNoEarlierStreamsPartition) {
  const std::vector<Value> values = Range(0, 500);
  std::vector<PartitionId> earlier;
  {
    Warehouse warehouse(DurableOptions(), OpenStore());
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({});
    ASSERT_TRUE(ingestor.AppendBatchAt(0, values).ok());
    ASSERT_TRUE(ingestor.Flush().ok());
    earlier = ingestor.rolled_in();
    ASSERT_EQ(earlier.size(), 2u);
  }

  auto restored = Warehouse::RestoreWithRecovery(DurableOptions(),
                                                 OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  StreamIngestor fresh(&warehouse, "events", MakeCountPartitioner(250));
  fresh.EnableCheckpoints({});
  ASSERT_TRUE(fresh.AppendBatchAt(0, values).ok());
  ASSERT_TRUE(fresh.Flush().ok());

  const std::vector<PartitionId>& own = fresh.rolled_in();
  ASSERT_EQ(own.size(), 2u);
  for (const PartitionId id : own) {
    EXPECT_EQ(std::count(earlier.begin(), earlier.end(), id), 0) << id;
  }
  EXPECT_EQ(warehouse.ListPartitions("events").value().size(), 4u);
  EXPECT_EQ(SampleBytesOf(warehouse, "events", own),
            SampleBytesOf(warehouse, "events", earlier));
}

/// An Env over the real filesystem that records the contents of one
/// directory before and after every mutating call while `recording` is
/// set: the states a crash between two writes can leave.
class CrashStateRecorder : public Env {
 public:
  explicit CrashStateRecorder(std::string dir) : dir_(std::move(dir)) {}

  using State = std::map<std::string, std::string>;

  Status ReadFile(const std::string& path, std::string* contents) override {
    return base_->ReadFile(path, contents);
  }
  Status WriteFileAtomic(const std::string& path,
                         std::string_view contents) override {
    return Around([&] { return base_->WriteFileAtomic(path, contents); });
  }
  Status AppendFile(const std::string& path, std::string_view bytes) override {
    return Around([&] { return base_->AppendFile(path, bytes); });
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return Around([&] { return base_->Rename(from, to); });
  }
  Status Remove(const std::string& path) override {
    return Around([&] { return base_->Remove(path); });
  }
  Status ListDir(const std::string& dir, std::vector<DirEntry>* entries,
                 std::string_view name_prefix) override {
    return base_->ListDir(dir, entries, name_prefix);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }

  bool recording = false;
  /// The distinct directory states seen, in order.
  std::vector<State> states;

 private:
  template <typename Op>
  Status Around(const Op& op) {
    Record();
    const Status status = op();
    Record();
    return status;
  }
  void Record() {
    if (!recording) return;
    State state;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      std::string bytes;
      EXPECT_TRUE(base_->ReadFile(entry.path().string(), &bytes).ok());
      state[entry.path().filename().string()] = std::move(bytes);
    }
    if (states.empty() || states.back() != state) {
      states.push_back(std::move(state));
    }
  }

  Env* const base_ = Env::Default();
  const std::string dir_;
};

// Stops the stream's first two partition closes after each of their
// writes: the sample put, the catalog record and the resume-point record
// (and any other write a close makes), and the stream's first record
// before them. From every state a crash can leave, a restore, a resume
// (or, before the first record, a fresh stream) and a replay of the whole
// stream lose no acknowledged element, apply none twice, and roll no
// partition in twice.
TEST_F(ResumableIngestTest, CloseStoppedAfterEachWriteReplaysExactlyOnce) {
  const std::vector<Value> values = Range(0, 800);
  const std::vector<std::string> want = ReferenceRun(values, 250);
  ASSERT_EQ(want.size(), 4u);

  CrashStateRecorder recorder(dir_);
  {
    Warehouse warehouse(DurableOptions(), OpenStoreOver(&recorder));
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({});
    // The closes at 250 and 500 write every record the recorder sees.
    recorder.recording = true;
    for (uint64_t i = 0; i < 520; i += 40) {
      ASSERT_TRUE(
          ingestor
              .AppendBatchAt(i, std::span<const Value>(values).subspan(i, 40))
              .ok())
          << "batch at " << i;
    }
    recorder.recording = false;
  }
  // Before and after the first record, and after each write of two closes.
  ASSERT_GE(recorder.states.size(), 8u);

  for (size_t k = 0; k < recorder.states.size(); ++k) {
    SCOPED_TRACE("crash state " + std::to_string(k));
    const std::string dir = dir_ + "/state" + std::to_string(k);
    std::filesystem::create_directories(dir);
    for (const auto& [name, bytes] : recorder.states[k]) {
      ASSERT_TRUE(WriteFileAtomic(dir + "/" + name, bytes).ok());
    }
    WarehouseOptions options = DurableOptions();
    options.manifest_path = dir + "/manifest";
    auto restored = Warehouse::RestoreWithRecovery(
        options, FileSampleStore::Open(dir).value(), options.manifest_path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    Warehouse& warehouse = *restored.value().warehouse;
    auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                          MakeCountPartitioner(250));
    std::unique_ptr<StreamIngestor> ingestor;
    if (resumed.status().IsNotFound()) {
      // Stopped before the stream's first record: nothing of it rolled
      // in, and a fresh stream forks the same RNG stream.
      ingestor = std::make_unique<StreamIngestor>(&warehouse, "events",
                                                  MakeCountPartitioner(250));
      ingestor->EnableCheckpoints({});
    } else {
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ingestor = std::move(resumed).value();
    }
    EXPECT_LE(ingestor->next_sequence(), 520u);
    for (uint64_t i = 0; i < values.size(); i += 40) {
      ASSERT_TRUE(
          ingestor
              ->AppendBatchAt(i, std::span<const Value>(values).subspan(i, 40))
              .ok())
          << "replay batch at " << i;
    }
    ASSERT_TRUE(ingestor->Flush().ok());
    EXPECT_EQ(warehouse.ListPartitions("events").value().size(), want.size());
    EXPECT_EQ(SampleBytes(warehouse, "events"), want);
  }
}

/// The kClosePending records of `chain`'s WAL, decoded, in append order.
/// Fails the test on a record of any other kind.
std::vector<IngestCheckpoint> CloseRecords(const CheckpointChain& chain) {
  std::vector<IngestCheckpoint> closes;
  for (const std::string& bytes : chain.deltas) {
    auto record = CheckpointDeltaRecord::Deserialize(bytes);
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    if (!record.ok()) continue;
    EXPECT_EQ(record.value().kind, CheckpointDeltaKind::kClosePending);
    auto ckpt = IngestCheckpoint::Deserialize(record.value().checkpoint_payload);
    EXPECT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    if (ckpt.ok()) closes.push_back(std::move(ckpt).value());
  }
  return closes;
}

// A failed WAL append breaks the WAL: the ingestor must not append behind
// it, so the next close record is promoted to a fresh snapshot generation,
// which heals the chain for the close records after it.
TEST_F(ResumableIngestTest, WalAppendFaultPromotesTheNextCloseToASnapshot) {
  const std::vector<Value> values = Range(0, 800);
  const std::vector<std::string> want = ReferenceRun(values, 250);
  ASSERT_EQ(want.size(), 4u);

  {
    auto injector = std::make_shared<FaultInjector>(31);
    FaultEnv env(Env::Default(), injector);
    Warehouse warehouse(DurableOptions(), OpenStoreOver(&env));
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    SampleStore* store = warehouse.store_for_testing();
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({});
    auto feed = [&](uint64_t from, uint64_t to) {
      for (uint64_t i = from; i < to; i += 40) {
        ASSERT_TRUE(
            ingestor
                .AppendBatchAt(i,
                               std::span<const Value>(values).subspan(i, 40))
                .ok())
            << "batch at " << i;
      }
    };
    feed(0, 200);
    // A durable anchor: the WAL is healthy from here on.
    ASSERT_TRUE(ingestor.Checkpoint().ok());
    const uint64_t generation =
        warehouse.GetIngestCheckpointChain("events").value().generation;
    const uint64_t snapshots = store->GetStoreStats().checkpoints_written;

    // The close at 250 fails to append its record. The record is best
    // effort, so the append itself succeeds.
    injector->Arm(kFaultSiteWalAppend, FaultKind::kIOError, /*count=*/1);
    feed(200, 280);
    EXPECT_EQ(injector->FiredCount(kFaultSiteWalAppend), 1u);
    ASSERT_EQ(ingestor.rolled_in().size(), 1u);
    {
      auto chain = warehouse.GetIngestCheckpointChain("events");
      ASSERT_TRUE(chain.ok()) << chain.status().ToString();
      EXPECT_EQ(chain.value().generation, generation);
      EXPECT_TRUE(CloseRecords(chain.value()).empty());
    }
    EXPECT_EQ(store->GetStoreStats().checkpoints_written, snapshots);

    // Crossing the close at 500: its record lands as a new snapshot
    // generation instead of riding the broken WAL.
    feed(280, 520);
    ASSERT_EQ(ingestor.rolled_in().size(), 2u);
    EXPECT_EQ(store->GetStoreStats().checkpoints_written, snapshots + 1);
    auto promoted = warehouse.GetIngestCheckpointChain("events");
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_GT(promoted.value().generation, generation);
    auto close_500 = IngestCheckpoint::Deserialize(promoted.value().snapshot);
    ASSERT_TRUE(close_500.ok()) << close_500.status().ToString();
    EXPECT_EQ(close_500.value().next_sequence, 500u);
    EXPECT_TRUE(CloseRecords(promoted.value()).empty());

    // The healed chain takes close records in its WAL again: the record of
    // the close at 750.
    feed(520, 760);
    ASSERT_EQ(ingestor.rolled_in().size(), 3u);
    EXPECT_EQ(store->GetStoreStats().checkpoints_written, snapshots + 1);
    auto healed = warehouse.GetIngestCheckpointChain("events");
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(healed.value().generation, promoted.value().generation);
    const std::vector<IngestCheckpoint> closes = CloseRecords(healed.value());
    ASSERT_EQ(closes.size(), 1u);
    EXPECT_EQ(closes[0].next_sequence, 750u);
    EXPECT_EQ(closes[0].rolled_in, ingestor.rolled_in());
  }

  // Resume from there and replay the whole stream: bit-identical to the
  // uninterrupted run.
  auto restored = Warehouse::RestoreWithRecovery(DurableOptions(),
                                                 OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                        MakeCountPartitioner(250));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->next_sequence(), 750u);
  ASSERT_EQ(resumed.value()->rolled_in().size(), 3u);
  for (uint64_t i = 0; i < values.size(); i += 40) {
    ASSERT_TRUE(
        resumed.value()
            ->AppendBatchAt(i, std::span<const Value>(values).subspan(i, 40))
            .ok())
        << "replay batch at " << i;
  }
  ASSERT_TRUE(resumed.value()->Flush().ok());
  EXPECT_EQ(SampleBytes(warehouse, "events"), want);
}

// A chain resumed without recovery can end in a torn WAL record. A close
// record appended behind it would be hidden from the next resume, which
// would then roll the closed partition in a second time; the resumed
// ingestor must start a new snapshot generation instead.
TEST_F(ResumableIngestTest, ResumeOverATornWalTailStartsANewGeneration) {
  const std::vector<Value> values = Range(0, 800);
  const std::vector<std::string> want = ReferenceRun(values, 250);
  ASSERT_EQ(want.size(), 4u);
  auto feed = [&](StreamIngestor& ingestor, uint64_t from, uint64_t to) {
    for (uint64_t i = from; i < to; i += 40) {
      ASSERT_TRUE(
          ingestor
              .AppendBatchAt(i, std::span<const Value>(values).subspan(i, 40))
              .ok())
          << "batch at " << i;
    }
  };

  uint64_t generation = 0;
  {
    Warehouse warehouse(DurableOptions(), OpenStore());
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({});
    ASSERT_TRUE(ingestor.Checkpoint().ok());
    feed(ingestor, 0, 280);
    ASSERT_EQ(ingestor.rolled_in().size(), 1u);
    generation =
        warehouse.GetIngestCheckpointChain("events").value().generation;
  }
  // A crash mid-append leaves the start of a frame behind the records.
  {
    std::ofstream wal(
        dir_ + "/events." + std::to_string(generation) + ".wal",
        std::ios::binary | std::ios::app);
    wal.write("\x40\x00\x00\x00torn", 8);
  }

  {
    auto restored =
        Warehouse::Restore(DurableOptions(), OpenStore(), manifest_);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    Warehouse& warehouse = *restored.value();
    ASSERT_TRUE(warehouse.GetIngestCheckpointChain("events").value().torn_tail);
    auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                          MakeCountPartitioner(250));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed.value()->next_sequence(), 250u);
    feed(*resumed.value(), 240, 520);
    ASSERT_EQ(resumed.value()->rolled_in().size(), 2u);
    auto chain = warehouse.GetIngestCheckpointChain("events");
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    EXPECT_GT(chain.value().generation, generation);
    EXPECT_FALSE(chain.value().torn_tail);
  }

  auto restored = Warehouse::RestoreWithRecovery(DurableOptions(),
                                                 OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                        MakeCountPartitioner(250));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->next_sequence(), 500u);
  feed(*resumed.value(), 0, values.size());
  ASSERT_TRUE(resumed.value()->Flush().ok());
  EXPECT_EQ(SampleBytes(warehouse, "events"), want);
}

// --- Warehouse-level reconciliation ---------------------------------------

TEST_F(CheckpointStoreTest, RestoreWithRecoveryDropsStaleCheckpoints) {
  {
    Warehouse warehouse(TestOptions(), OpenStore());
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    ASSERT_TRUE(warehouse.IngestBatch("events", Range(0, 1000), 2).ok());
    ASSERT_TRUE(warehouse.SaveManifest(manifest_).ok());
    // A checkpoint for a dataset the catalog does not know (e.g. dropped
    // after the checkpoint was written, or a foreign leftover).
    ASSERT_TRUE(warehouse.store_for_testing()
                    ->PutCheckpoint("ghost", MinimalCheckpointPayload(9))
                    .ok());
  }

  auto restored = Warehouse::RestoreWithRecovery(TestOptions(), OpenStore(),
                                                 manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().report.stale_checkpoints,
            (std::vector<DatasetId>{"ghost"}));
  EXPECT_TRUE(restored.value()
                  .warehouse->ListIngestCheckpoints()
                  .value()
                  .empty());
}

TEST_F(CheckpointStoreTest, DropDatasetRemovesItsCheckpoint) {
  Warehouse warehouse(TestOptions(), OpenStore());
  ASSERT_TRUE(warehouse.CreateDataset("events").ok());
  ASSERT_TRUE(
      warehouse.PutIngestCheckpoint("events", MinimalCheckpointPayload(1))
          .ok());
  ASSERT_EQ(warehouse.ListIngestCheckpoints().value().size(), 1u);
  ASSERT_TRUE(warehouse.DropDataset("events").ok());
  EXPECT_TRUE(warehouse.ListIngestCheckpoints().value().empty());
}

TEST_F(CheckpointStoreTest, PutCheckpointForUnknownDatasetIsNotFound) {
  Warehouse warehouse(TestOptions(), OpenStore());
  EXPECT_TRUE(
      warehouse.PutIngestCheckpoint("nope", MinimalCheckpointPayload(1))
          .IsNotFound());
}

}  // namespace
}  // namespace sampwh
