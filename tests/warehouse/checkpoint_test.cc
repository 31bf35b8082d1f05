// The crash-safe resumable-ingestion protocol end to end: the checkpoint
// record round-trips, both store backends keep generational checkpoints
// that survive torn writes, and a StreamIngestor killed at an arbitrary
// point — including inside the two-phase close protocol — resumes from its
// checkpoint and, fed an at-least-once replay of the source stream,
// produces rolled-in samples bit-identical to an uninterrupted run.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
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
/// partition, no pending roll-in).
std::string MinimalCheckpointPayload(uint64_t next_sequence) {
  IngestCheckpoint ckpt;
  ckpt.next_sequence = next_sequence;
  ckpt.rng = Pcg64(next_sequence).SaveState();
  return ckpt.Serialize();
}

/// Serialized bytes of every stored sample of `dataset`, ascending by
/// partition id — the bit-identity yardstick.
std::vector<std::string> SampleBytes(Warehouse& warehouse,
                                     const DatasetId& dataset) {
  std::vector<std::string> out;
  auto parts = warehouse.ListPartitions(dataset);
  EXPECT_TRUE(parts.ok());
  if (!parts.ok()) return out;
  for (const PartitionInfo& p : parts.value()) {
    auto sample = warehouse.GetSample(dataset, p.id);
    EXPECT_TRUE(sample.ok());
    if (!sample.ok()) return out;
    BinaryWriter writer;
    sample.value().SerializeTo(&writer);
    out.push_back(std::move(writer).Release());
  }
  return out;
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
  PendingRollIn pending;
  pending.sample_payload = "opaque sample bytes";
  pending.min_timestamp = 100;
  pending.max_timestamp = 900;
  pending.id_lower_bound = 9;
  ckpt.pending = pending;

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
  ASSERT_TRUE(got.pending.has_value());
  EXPECT_EQ(got.pending->sample_payload, pending.sample_payload);
  EXPECT_EQ(got.pending->min_timestamp, pending.min_timestamp);
  EXPECT_EQ(got.pending->max_timestamp, pending.max_timestamp);
  EXPECT_EQ(got.pending->id_lower_bound, pending.id_lower_bound);
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
  ckpt.progress.elements = 0;
  ckpt.sampler_state.clear();
  PendingRollIn pending;
  pending.sample_payload = "junk that is not a sample";
  ckpt.pending = pending;
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
  EXPECT_TRUE(store.GetCheckpoint("events").status().IsNotFound());
  EXPECT_TRUE(store.DeleteCheckpoint("events").IsNotFound());
  EXPECT_TRUE(store.ListCheckpoints().value().empty());

  const std::string first = MinimalCheckpointPayload(100);
  const std::string second = MinimalCheckpointPayload(200);
  ASSERT_TRUE(store.PutCheckpoint("events", first).ok());
  EXPECT_EQ(store.GetCheckpoint("events").value(), first);
  ASSERT_TRUE(store.PutCheckpoint("events", second).ok());
  EXPECT_EQ(store.GetCheckpoint("events").value(), second);
  ASSERT_TRUE(store.PutCheckpoint("orders", first).ok());

  const auto datasets = store.ListCheckpoints();
  ASSERT_TRUE(datasets.ok());
  EXPECT_EQ(datasets.value(),
            (std::vector<DatasetId>{"events", "orders"}));

  EXPECT_TRUE(store.DeleteCheckpoint("events").ok());
  EXPECT_TRUE(store.GetCheckpoint("events").status().IsNotFound());
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
  const auto got = store.GetCheckpoint("events");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), good);
  EXPECT_GE(store.GetStoreStats().quarantines, 1u);

  // And a subsequent write supersedes everything.
  ASSERT_TRUE(store.PutCheckpoint("events", newer).ok());
  EXPECT_EQ(store.GetCheckpoint("events").value(), newer);
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
  EXPECT_TRUE(store->GetCheckpoint("events").status().IsNotFound());
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
  EXPECT_GE(store->GetStoreStats().quarantines, 1u);
}

// --- Delta records, WAL framing and chains --------------------------------

CheckpointDeltaRecord ProgressDelta(uint64_t sequence) {
  CheckpointDeltaRecord rec;
  rec.kind = CheckpointDeltaKind::kProgress;
  rec.next_sequence = sequence;
  rec.partitions_started = 1;
  rec.rng = Pcg64(sequence).SaveState();
  rec.progress.elements = sequence % 97;
  return rec;
}

std::string CloseDeltaPayload(uint64_t sequence) {
  CheckpointDeltaRecord rec;
  rec.kind = CheckpointDeltaKind::kClosePending;
  rec.checkpoint_payload = MinimalCheckpointPayload(sequence);
  return rec.Serialize();
}

TEST(CheckpointDeltaTest, RecordRoundTripAndDamageRejection) {
  const CheckpointDeltaRecord progress = ProgressDelta(4242);
  const std::string bytes = progress.Serialize();
  auto round = CheckpointDeltaRecord::Deserialize(bytes);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().kind, CheckpointDeltaKind::kProgress);
  EXPECT_EQ(round.value().next_sequence, 4242u);
  EXPECT_EQ(round.value().partitions_started, 1u);
  EXPECT_EQ(round.value().rng.state_lo, progress.rng.state_lo);
  EXPECT_EQ(round.value().progress.elements, progress.progress.elements);
  EXPECT_TRUE(VerifyCheckpointDeltaPayload(bytes).ok());

  const std::string close = CloseDeltaPayload(77);
  auto close_round = CheckpointDeltaRecord::Deserialize(close);
  ASSERT_TRUE(close_round.ok());
  EXPECT_EQ(close_round.value().kind, CheckpointDeltaKind::kClosePending);
  EXPECT_TRUE(VerifyCheckpointDeltaPayload(close).ok());

  EXPECT_FALSE(CheckpointDeltaRecord::Deserialize("").ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(CheckpointDeltaRecord::Deserialize(bytes.substr(0, len)).ok())
        << "accepted a record truncated to " << len << " bytes";
  }
  // A close record whose embedded checkpoint is garbage passes the shallow
  // decode only; deep verification must reject it.
  CheckpointDeltaRecord bad_close;
  bad_close.kind = CheckpointDeltaKind::kClosePending;
  bad_close.checkpoint_payload = "junk that is not a checkpoint";
  EXPECT_FALSE(VerifyCheckpointDeltaPayload(bad_close.Serialize()).ok());
}

TEST(CheckpointDeltaTest, WalParseStopsAtTearOrBitRot) {
  std::string wal;
  const std::vector<std::string> payloads = {ProgressDelta(10).Serialize(),
                                             CloseDeltaPayload(20),
                                             ProgressDelta(30).Serialize()};
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
  const std::vector<std::string> payloads = {ProgressDelta(10).Serialize(),
                                             CloseDeltaPayload(20),
                                             ProgressDelta(30).Serialize()};
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

  // Progress deltas are liveness only: they never advance the resume point
  // (the sampler state at their watermark was never persisted).
  chain.deltas.push_back(ProgressDelta(150).Serialize());
  auto with_progress = ResolveCheckpointChain(chain);
  ASSERT_TRUE(with_progress.ok());
  EXPECT_EQ(with_progress.value().next_sequence, 100u);

  // A close record is state-complete and overrides the snapshot.
  chain.deltas.push_back(CloseDeltaPayload(180));
  auto with_close = ResolveCheckpointChain(chain);
  ASSERT_TRUE(with_close.ok());
  EXPECT_EQ(with_close.value().next_sequence, 180u);

  // A trailing progress record after the close still does not advance it.
  chain.deltas.push_back(ProgressDelta(200).Serialize());
  auto trailing = ResolveCheckpointChain(chain);
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(trailing.value().next_sequence, 180u);
}

void ExerciseWalAppendAndChain(SampleStore& store) {
  // No snapshot generation yet: nothing to own the WAL.
  EXPECT_TRUE(store
                  .AppendCheckpointDeltas("events",
                                          {ProgressDelta(1).Serialize()})
                  .IsFailedPrecondition());

  const std::string snap = MinimalCheckpointPayload(100);
  ASSERT_TRUE(store.PutCheckpoint("events", snap).ok());
  const std::vector<std::string> batch = {ProgressDelta(150).Serialize(),
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
  const std::vector<std::string> good = {ProgressDelta(150).Serialize()};
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
  const std::vector<std::string> good = {ProgressDelta(150).Serialize()};
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
                        "events", {ProgressDelta(9).Serialize()})
                    .ok());
  }
  // A WAL whose generation has no snapshot: the crash artifact of a torn
  // PutCheckpoint that already lost its .ckpt file.
  const std::string orphan = dir_ + "/events.999.wal";
  {
    std::ofstream f(orphan, std::ios::binary);
    std::string wal;
    AppendFrame(&wal, ProgressDelta(11).Serialize());
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
                                           {ProgressDelta(250).Serialize()})
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

  // Run 1: ingest 520 elements with cadence checkpoints, then "crash" (all
  // in-memory state destroyed, no Flush).
  {
    Warehouse warehouse(DurableOptions(), OpenStore());
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({.every_n_elements = 64});
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
                                        MakeCountPartitioner(250),
                                        {.every_n_elements = 64});
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

// Crash INSIDE the close protocol, after checkpoint A but before the
// roll-in persisted: resume must roll the pending partition in (once).
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
    // IO retries, leaving checkpoint A as the only durable trace.
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
  // Resume completed the interrupted roll-in exactly once.
  ASSERT_EQ(resumed.value()->rolled_in().size(), 1u);
  ASSERT_EQ(warehouse.ListPartitions("events").value().size(), 1u);

  for (uint64_t i = 0; i < values.size(); i += 80) {
    ASSERT_TRUE(
        resumed.value()
            ->AppendBatchAt(i, std::span<const Value>(values).subspan(i, 80))
            .ok());
  }
  ASSERT_TRUE(resumed.value()->Flush().ok());
  EXPECT_EQ(SampleBytes(warehouse, "events"), want);
}

// Crash between the roll-in and checkpoint B: the catalog already holds
// the partition, so resume must ADOPT it, not roll it in twice.
TEST_F(ResumableIngestTest, CheckpointBLossAdoptsCompletedRollIn) {
  const std::vector<Value> values = Range(0, 400);
  const std::vector<std::string> want = ReferenceRun(values, 250);
  ASSERT_EQ(want.size(), 2u);

  {
    auto injector = std::make_shared<FaultInjector>(29);
    FaultEnv env(Env::Default(), injector);
    Warehouse warehouse(DurableOptions(), OpenStoreOver(&env));
    warehouse.store_for_testing()->SetRetryPolicy(
        {.max_attempts = 1, .initial_backoff = std::chrono::microseconds(1)});
    ASSERT_TRUE(warehouse.CreateDataset("events").ok());
    StreamIngestor ingestor(&warehouse, "events", MakeCountPartitioner(250));
    ingestor.EnableCheckpoints({});
    ASSERT_TRUE(
        ingestor.AppendBatchAt(0, std::span<const Value>(values).first(250))
            .ok());
    // Let checkpoint A through (skip 1), then fail checkpoint B. B is best
    // effort, so the append itself succeeds and the roll-in completes.
    injector->Arm(kFaultSiteCheckpointWrite, FaultKind::kIOError, 100, 1);
    ASSERT_TRUE(ingestor
                    .AppendBatchAt(250, std::span<const Value>(values)
                                            .subspan(250, 1))
                    .ok());
    ASSERT_EQ(ingestor.rolled_in().size(), 1u);
  }

  auto restored = Warehouse::RestoreWithRecovery(DurableOptions(),
                                                 OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                        MakeCountPartitioner(250));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // Adopted, not duplicated: still exactly one partition in the catalog.
  ASSERT_EQ(resumed.value()->rolled_in().size(), 1u);
  ASSERT_EQ(warehouse.ListPartitions("events").value().size(), 1u);

  for (uint64_t i = 0; i < values.size(); i += 80) {
    ASSERT_TRUE(
        resumed.value()
            ->AppendBatchAt(i, std::span<const Value>(values).subspan(i, 80))
            .ok());
  }
  ASSERT_TRUE(resumed.value()->Flush().ok());
  EXPECT_EQ(SampleBytes(warehouse, "events"), want);
}

/// Polls `done` until it holds or a generous deadline passes; the
/// background checkpoint writer commits on its own cadence.
bool WaitUntil(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A failed group commit breaks the WAL: the writer must not append behind
// it, so the next close record is promoted to a fresh snapshot generation,
// which heals the chain for later deltas.
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
    ingestor.EnableCheckpoints({.every_n_elements = 32});
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

    // The next group commit (the cadence delta of 200..240) fails.
    injector->Arm(kFaultSiteWalAppend, FaultKind::kIOError, 1);
    feed(200, 240);
    ASSERT_TRUE(WaitUntil(
        [&] { return injector->FiredCount(kFaultSiteWalAppend) == 1; }));

    // Crossing the close at 250: checkpoint A lands as a new snapshot
    // generation instead of riding the broken WAL.
    feed(240, 280);
    ASSERT_EQ(ingestor.rolled_in().size(), 1u);
    EXPECT_GT(store->GetStoreStats().checkpoints_written, snapshots);
    auto promoted = warehouse.GetIngestCheckpointChain("events");
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_GT(promoted.value().generation, generation);
    auto close_a = IngestCheckpoint::Deserialize(promoted.value().snapshot);
    ASSERT_TRUE(close_a.ok()) << close_a.status().ToString();
    EXPECT_TRUE(close_a.value().pending.has_value());
    EXPECT_EQ(close_a.value().next_sequence, 250u);

    // The healed chain takes progress deltas again.
    feed(280, 480);
    EXPECT_TRUE(WaitUntil([&] {
      auto chain = warehouse.GetIngestCheckpointChain("events");
      if (!chain.ok()) return false;
      for (const std::string& bytes : chain.value().deltas) {
        auto record = CheckpointDeltaRecord::Deserialize(bytes);
        if (record.ok() &&
            record.value().kind == CheckpointDeltaKind::kProgress &&
            record.value().next_sequence > 280) {
          return true;
        }
      }
      return false;
    }));
  }

  // Resume from there and replay the whole stream: bit-identical to the
  // uninterrupted run.
  auto restored = Warehouse::RestoreWithRecovery(DurableOptions(),
                                                 OpenStore(), manifest_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Warehouse& warehouse = *restored.value().warehouse;
  auto resumed = StreamIngestor::Resume(&warehouse, "events",
                                        MakeCountPartitioner(250),
                                        {.every_n_elements = 32});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GE(resumed.value()->next_sequence(), 250u);
  ASSERT_EQ(resumed.value()->rolled_in().size(), 1u);
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
