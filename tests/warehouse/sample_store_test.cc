#include "src/warehouse/sample_store.h"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "src/testing/fault_env.h"
#include "src/util/serialization.h"
#include "src/util/thread_pool.h"
#include "tests/warehouse/older_layout.h"

namespace sampwh {
namespace {

CompactHistogram MakeHistogram(
    const std::vector<std::pair<Value, uint64_t>>& entries) {
  CompactHistogram h;
  for (const auto& [v, n] : entries) h.Insert(v, n);
  return h;
}

PartitionSample TestSample(uint64_t parent = 100) {
  return PartitionSample::MakeReservoir(MakeHistogram({{1, 2}, {5, 3}}),
                                        parent, 4096);
}

// The store over the files of each store type (a directory of the real
// filesystem, or a MemEnv), reached through a FaultEnv so a case can arm
// faults with `injector_`. Unarmed, the FaultEnv passes every call through.
template <typename T>
class SampleStoreTest : public ::testing::Test {
 public:
  void SetUp() override {
    Env* base = &mem_;
    std::string dir = "mem";
    if constexpr (std::is_same_v<T, FileSampleStore>) {
      // Unique per process: parallel ctest runs each case in its own
      // process, and a shared directory would be remove_all'd from under
      // concurrently running sibling cases.
      dir_ = (std::filesystem::temp_directory_path() /
              ("sampwh_store_test_" + std::to_string(::getpid())))
                 .string();
      std::filesystem::remove_all(dir_);
      base = Env::Default();
      dir = dir_;
    }
    env_ = std::make_unique<FaultEnv>(base, injector_);
    ASSERT_TRUE(env_->CreateDir(dir).ok());
    store_ = std::make_unique<SampleStore>(env_.get(), dir);
  }

  void TearDown() override {
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::shared_ptr<FaultInjector> injector_ =
      std::make_shared<FaultInjector>(7);
  MemEnv mem_;
  std::unique_ptr<FaultEnv> env_;
  std::unique_ptr<SampleStore> store_;
  std::string dir_;
};

using StoreTypes = ::testing::Types<InMemorySampleStore, FileSampleStore>;
TYPED_TEST_SUITE(SampleStoreTest, StoreTypes);

TYPED_TEST(SampleStoreTest, PutGetRoundTrip) {
  const PartitionSample s = TestSample();
  ASSERT_TRUE(this->store_->Put({"ds", 0}, s).ok());
  const auto loaded = this->store_->Get({"ds", 0});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().parent_size(), 100u);
  EXPECT_TRUE(loaded.value().histogram() == s.histogram());
}

TYPED_TEST(SampleStoreTest, GetMissingIsNotFound) {
  EXPECT_TRUE(this->store_->Get({"ds", 99}).status().IsNotFound());
}

TYPED_TEST(SampleStoreTest, PutReplacesExisting) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample(100)).ok());
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample(555)).ok());
  EXPECT_EQ(this->store_->Get({"ds", 0}).value().parent_size(), 555u);
}

TYPED_TEST(SampleStoreTest, TenantNamespacedKeysNeverCollide) {
  // The warehouse server maps (tenant, dataset) onto "<tenant>.<dataset>";
  // both backends must keep two tenants' same-named datasets fully
  // separate — same partition id, same dataset stem, different prefix.
  ASSERT_TRUE(this->store_->Put({"acme.sales", 0}, TestSample(111)).ok());
  ASSERT_TRUE(this->store_->Put({"beta.sales", 0}, TestSample(222)).ok());
  EXPECT_EQ(this->store_->Get({"acme.sales", 0}).value().parent_size(), 111u);
  EXPECT_EQ(this->store_->Get({"beta.sales", 0}).value().parent_size(), 222u);
  // The bare stem is a third, unrelated dataset.
  EXPECT_TRUE(this->store_->Get({"sales", 0}).status().IsNotFound());

  // Listing and deletion stay inside one tenant's key.
  EXPECT_EQ(this->store_->List("acme.sales").value().size(), 1u);
  ASSERT_TRUE(this->store_->Delete({"acme.sales", 0}).ok());
  EXPECT_TRUE(this->store_->Get({"acme.sales", 0}).status().IsNotFound());
  EXPECT_EQ(this->store_->Get({"beta.sales", 0}).value().parent_size(), 222u);
}

TYPED_TEST(SampleStoreTest, DeleteRemoves) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample()).ok());
  EXPECT_TRUE(this->store_->Delete({"ds", 0}).ok());
  EXPECT_TRUE(this->store_->Get({"ds", 0}).status().IsNotFound());
  EXPECT_TRUE(this->store_->Delete({"ds", 0}).IsNotFound());
}

TYPED_TEST(SampleStoreTest, ListIsPerDatasetAndSorted) {
  ASSERT_TRUE(this->store_->Put({"ds", 5}, TestSample()).ok());
  ASSERT_TRUE(this->store_->Put({"ds", 1}, TestSample()).ok());
  ASSERT_TRUE(this->store_->Put({"other", 3}, TestSample()).ok());
  const auto ids = this->store_->List("ds");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value(), (std::vector<PartitionId>{1, 5}));
}

TYPED_TEST(SampleStoreTest, RejectsInvalidSamples) {
  const PartitionSample bogus = PartitionSample::MakeExhaustive(
      MakeHistogram({{1, 1}}), 99, 4096);  // claims parent 99, holds 1
  EXPECT_FALSE(this->store_->Put({"ds", 0}, bogus).ok());
}

TYPED_TEST(SampleStoreTest, GetManyReturnsInKeyOrder) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample(100)).ok());
  ASSERT_TRUE(this->store_->Put({"ds", 1}, TestSample(200)).ok());
  ASSERT_TRUE(this->store_->Put({"ds", 2}, TestSample(300)).ok());
  const auto loaded =
      this->store_->GetMany({{"ds", 2}, {"ds", 0}, {"ds", 1}});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value()[0].parent_size(), 300u);
  EXPECT_EQ(loaded.value()[1].parent_size(), 100u);
  EXPECT_EQ(loaded.value()[2].parent_size(), 200u);
}

TYPED_TEST(SampleStoreTest, GetManyParallelMatchesSerial) {
  constexpr uint64_t kCount = 24;
  std::vector<PartitionKey> keys;
  for (uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(this->store_->Put({"ds", i}, TestSample(100 + i)).ok());
    keys.push_back({"ds", i});
  }
  ThreadPool pool(4);
  const auto parallel = this->store_->GetMany(keys, &pool);
  const auto serial = this->store_->GetMany(keys);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(parallel.value().size(), kCount);
  for (uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(parallel.value()[i].parent_size(), 100 + i);
    EXPECT_TRUE(parallel.value()[i].histogram() ==
                serial.value()[i].histogram());
  }
}

TYPED_TEST(SampleStoreTest, GetManyFailsOnAnyMissingKey) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample()).ok());
  EXPECT_TRUE(
      this->store_->GetMany({{"ds", 0}, {"ds", 9}}).status().IsNotFound());
  ThreadPool pool(2);
  EXPECT_TRUE(this->store_->GetMany({{"ds", 0}, {"ds", 9}}, &pool)
                  .status()
                  .IsNotFound());
}

TYPED_TEST(SampleStoreTest, GetManyEmptyIsOk) {
  const auto loaded = this->store_->GetMany({});
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TYPED_TEST(SampleStoreTest, TotalStoredBytesTracksContent) {
  EXPECT_EQ(this->store_->TotalStoredBytes(), 0u);
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample()).ok());
  const uint64_t one = this->store_->TotalStoredBytes();
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(this->store_->Put({"ds", 1}, TestSample()).ok());
  EXPECT_EQ(this->store_->TotalStoredBytes(), 2 * one);
  ASSERT_TRUE(this->store_->Delete({"ds", 0}).ok());
  EXPECT_EQ(this->store_->TotalStoredBytes(), one);
}

// --- Fault-path conformance ------------------------------------------------
// Both backends must surface the SAME Status category for each failure
// class: NotFound for absent keys (covered above), Corruption for damaged
// payloads, IOError for transient faults that outlive the retry budget.
// Callers (warehouse, recovery, harness) branch on these categories, so a
// backend that reports a different code changes recovery behavior.

TYPED_TEST(SampleStoreTest, InjectedCorruptReadIsCorruption) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample()).ok());
  auto injector = this->injector_;
  injector->Arm(kFaultSiteGetRead, FaultKind::kCorruptRead);
  EXPECT_TRUE(this->store_->Get({"ds", 0}).status().IsCorruption());
}

TYPED_TEST(SampleStoreTest, TransientReadFaultIsRetriedThenSucceeds) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample(321)).ok());
  auto injector = this->injector_;
  SampleStore::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::microseconds(1);
  this->store_->SetRetryPolicy(policy);
  // Two injected faults, three attempts allowed: the last retry lands.
  injector->Arm(kFaultSiteGetRead, FaultKind::kIOError, /*count=*/2);
  const auto loaded = this->store_->Get({"ds", 0});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().parent_size(), 321u);
  EXPECT_EQ(injector->FiredCount(kFaultSiteGetRead), 2u);
}

TYPED_TEST(SampleStoreTest, ExhaustedReadRetriesSurfaceIOError) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample()).ok());
  auto injector = this->injector_;
  SampleStore::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::microseconds(1);
  this->store_->SetRetryPolicy(policy);
  injector->Arm(kFaultSiteGetRead, FaultKind::kIOError, /*count=*/3);
  EXPECT_TRUE(this->store_->Get({"ds", 0}).status().IsIOError());
  // The fault cleared after three firings; the store heals on the next Get.
  EXPECT_TRUE(this->store_->Get({"ds", 0}).ok());
}

TYPED_TEST(SampleStoreTest, TransientWriteFaultIsRetriedThenSucceeds) {
  auto injector = this->injector_;
  SampleStore::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::microseconds(1);
  this->store_->SetRetryPolicy(policy);
  injector->Arm(kFaultSitePutWrite, FaultKind::kIOError, /*count=*/2);
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample(99)).ok());
  EXPECT_EQ(this->store_->Get({"ds", 0}).value().parent_size(), 99u);
}

TYPED_TEST(SampleStoreTest, TornWriteIsIOErrorThenCorruptionOnRead) {
  auto injector = this->injector_;
  injector->Arm(kFaultSitePutWrite, FaultKind::kTornWrite);
  // The tear is a simulated crash, not a transient fault: the crashed
  // process writes nothing more, so no retry repairs it and the damaged
  // bytes stay persisted.
  EXPECT_TRUE(this->store_->Put({"ds", 0}, TestSample()).IsIOError());
  EXPECT_TRUE(this->store_->Get({"ds", 0}).status().IsCorruption());
}

// One store over two Envs: a torn sample is quarantined by the first read
// that finds it, on both store types, so it is never served twice.
TYPED_TEST(SampleStoreTest, TornSampleIsQuarantinedByTheFirstGet) {
  auto injector = this->injector_;
  injector->Arm(kFaultSitePutWrite, FaultKind::kTornWrite);
  EXPECT_TRUE(this->store_->Put({"ds", 0}, TestSample()).IsIOError());
  this->env_->Restart();
  EXPECT_GT(this->store_->TotalStoredBytes(), 0u);

  EXPECT_TRUE(this->store_->Get({"ds", 0}).status().IsCorruption());
  EXPECT_TRUE(this->store_->Get({"ds", 0}).status().IsNotFound());
  EXPECT_EQ(this->store_->TotalStoredBytes(), 0u);
  EXPECT_EQ(this->store_->GetStoreStats().quarantines, 1u);
}

TYPED_TEST(SampleStoreTest, CorruptDigestQuarantinesLikeGet) {
  auto injector = this->injector_;
  injector->Arm(kFaultSitePutWrite, FaultKind::kTornWrite);
  EXPECT_TRUE(this->store_->Put({"ds", 0}, TestSample()).IsIOError());
  this->env_->Restart();
  EXPECT_TRUE(this->store_->ContentDigest({"ds", 0}).status().IsCorruption());
  EXPECT_TRUE(this->store_->ContentDigest({"ds", 0}).status().IsNotFound());
}

TYPED_TEST(SampleStoreTest, RecoverNamesFilesByBasename) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample()).ok());
  auto injector = this->injector_;
  injector->Arm(kFaultSitePutWrite, FaultKind::kCrashBeforeRename);
  EXPECT_TRUE(this->store_->Put({"ds", 1}, TestSample()).IsIOError());
  this->env_->Restart();
  injector->Arm(kFaultSitePutWrite, FaultKind::kTornWrite);
  EXPECT_TRUE(this->store_->Put({"ds", 2}, TestSample()).IsIOError());
  this->env_->Restart();

  const auto report = this->store_->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().removed_temps,
            std::vector<std::string>{"ds.1.sample.tmp"});
  EXPECT_EQ(report.value().quarantined,
            std::vector<std::string>{"ds.2.sample"});
  EXPECT_EQ(this->store_->List("ds").value(), std::vector<PartitionId>{0});
}

TYPED_TEST(SampleStoreTest, RejectsInvalidDatasetIds) {
  EXPECT_TRUE(this->store_->Put({"no/slash", 0}, TestSample())
                  .IsInvalidArgument());
  EXPECT_TRUE(this->store_->Get({"", 0}).status().IsInvalidArgument());
  EXPECT_TRUE(this->store_->List("a b").status().IsInvalidArgument());
}

TYPED_TEST(SampleStoreTest, RecoverQuarantinesTornSample) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample(111)).ok());
  auto injector = this->injector_;
  injector->Arm(kFaultSitePutWrite, FaultKind::kTornWrite);
  EXPECT_TRUE(this->store_->Put({"ds", 1}, TestSample(222)).IsIOError());
  this->env_->Restart();

  const auto report = this->store_->Recover({{"ds", 0}, {"ds", 1}});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().quarantined.size(), 1u);
  ASSERT_EQ(report.value().missing_partitions.size(), 1u);
  EXPECT_EQ(report.value().missing_partitions[0].partition, 1u);
  // Post-recovery state is clean: the survivor reads, the torn key is a
  // plain miss (never Corruption).
  EXPECT_EQ(this->store_->Get({"ds", 0}).value().parent_size(), 111u);
  EXPECT_TRUE(this->store_->Get({"ds", 1}).status().IsNotFound());
}

// A read that fails past the retry budget says nothing about the bytes:
// Recover fails and quarantines nothing, and the sample survives.
TYPED_TEST(SampleStoreTest, RecoverFailsOnATransientReadAndKeepsTheSample) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample(111)).ok());
  SampleStore::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::microseconds(1);
  this->store_->SetRetryPolicy(policy);
  this->injector_->Arm(kFaultSiteGetRead, FaultKind::kIOError, /*count=*/3);
  EXPECT_TRUE(this->store_->Recover({{"ds", 0}}).status().IsIOError());
  EXPECT_EQ(this->store_->GetStoreStats().quarantines, 0u);

  const auto report = this->store_->Recover({{"ds", 0}});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().quarantined.empty());
  EXPECT_TRUE(report.value().missing_partitions.empty());
  EXPECT_EQ(this->store_->Get({"ds", 0}).value().parent_size(), 111u);
}

TYPED_TEST(SampleStoreTest, GetManyInjectedTaskFaultFailsWholeCall) {
  std::vector<PartitionKey> keys;
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(this->store_->Put({"ds", i}, TestSample(100 + i)).ok());
    keys.push_back({"ds", i});
  }
  auto injector = this->injector_;
  SampleStore::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::microseconds(1);
  this->store_->SetRetryPolicy(policy);
  // Two fetches of four land; every later read fails past the retry
  // budget, so its fetch task dies. The whole prefetch must fail, never
  // return a partial vector.
  injector->Arm(kFaultSiteGetRead, FaultKind::kIOError, /*count=*/100,
                /*skip=*/2);
  EXPECT_TRUE(this->store_->GetMany(keys).status().IsIOError());
  ThreadPool pool(3);
  injector->Arm(kFaultSiteGetRead, FaultKind::kIOError, /*count=*/100,
                /*skip=*/2);
  EXPECT_TRUE(this->store_->GetMany(keys, &pool).status().IsIOError());
  // Disarmed, the same call succeeds in full.
  injector->Disarm(kFaultSiteGetRead);
  const auto loaded = this->store_->GetMany(keys, &pool);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 4u);
}

TYPED_TEST(SampleStoreTest, RecoverReportsMissingExpectedPartitions) {
  ASSERT_TRUE(this->store_->Put({"ds", 0}, TestSample()).ok());
  const auto report = this->store_->Recover({{"ds", 0}, {"ds", 5}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().quarantined.empty());
  ASSERT_EQ(report.value().missing_partitions.size(), 1u);
  EXPECT_EQ(report.value().missing_partitions[0].partition, 5u);
}

// Backend conformance: both stores must report the identical footprint for
// identical content, so capacity accounting is backend-agnostic.
TEST(SampleStoreConformanceTest, TotalStoredBytesAgreesAcrossBackends) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_store_parity")
          .string();
  std::filesystem::remove_all(dir);
  auto file_store = FileSampleStore::Open(dir);
  ASSERT_TRUE(file_store.ok());
  InMemorySampleStore mem_store;
  for (uint64_t i = 0; i < 8; ++i) {
    const PartitionSample s = TestSample(50 + 37 * i);
    ASSERT_TRUE(mem_store.Put({"ds", i}, s).ok());
    ASSERT_TRUE(file_store.value()->Put({"ds", i}, s).ok());
  }
  EXPECT_EQ(mem_store.TotalStoredBytes(),
            file_store.value()->TotalStoredBytes());
  ASSERT_TRUE(mem_store.Delete({"ds", 3}).ok());
  ASSERT_TRUE(file_store.value()->Delete({"ds", 3}).ok());
  EXPECT_EQ(mem_store.TotalStoredBytes(),
            file_store.value()->TotalStoredBytes());
  std::filesystem::remove_all(dir);
}

// Regression test for the striped read locking: two Gets of keys on
// different stripes must be in the store simultaneously. A rendezvous read
// callback (the store reads under the key's stripe lock) blocks each reader
// until both have arrived — under the old store-wide mutex this deadlocks,
// with striped locks both pass through. The generous timeout only bounds
// the failure mode; the passing path does not sleep.
TEST(FileSampleStoreTest, GetsOfDifferentStripesRunConcurrently) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_store_stripes")
          .string();
  std::filesystem::remove_all(dir);

  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool timed_out = false;
  FaultEnv env(Env::Default(), /*injector=*/nullptr, [&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    // Wait (bounded) for the other reader to also be inside Get. Progress
    // here requires both stripe locks to be held at once.
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return arrived >= 2; })) {
      timed_out = true;
    }
  });
  ASSERT_TRUE(env.CreateDir(dir).ok());
  SampleStore store(&env, dir);

  // Two keys guaranteed to hash to distinct lock stripes.
  const PartitionKey a{"ds", 0};
  PartitionKey b{"ds", 1};
  while (SampleStore::StripeIndexForTesting(b) ==
         SampleStore::StripeIndexForTesting(a)) {
    ++b.partition;
  }
  ASSERT_TRUE(store.Put(a, TestSample(100)).ok());
  ASSERT_TRUE(store.Put(b, TestSample(200)).ok());

  std::thread t1([&] { EXPECT_TRUE(store.Get(a).ok()); });
  std::thread t2([&] { EXPECT_TRUE(store.Get(b).ok()); });
  t1.join();
  t2.join();
  EXPECT_FALSE(timed_out)
      << "readers of different stripes did not overlap: striped locking "
         "regressed to a store-wide mutex";
  EXPECT_EQ(arrived, 2);
  std::filesystem::remove_all(dir);
}

// A sample deleted between Recover's listing and its read is a plain miss:
// skipped, not quarantined.
TEST(InMemorySampleStoreTest, RecoverSkipsASampleThatVanishesAfterListing) {
  MemEnv mem;
  FaultEnv env(&mem, /*injector=*/nullptr, [&](const std::string& path) {
    if (path == "mem/ds.1.sample") mem.Remove(path);
  });
  SampleStore store(&env, "mem");
  ASSERT_TRUE(store.Put({"ds", 0}, TestSample()).ok());
  ASSERT_TRUE(store.Put({"ds", 1}, TestSample()).ok());

  const auto report = store.Recover({{"ds", 0}, {"ds", 1}});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().scanned, 1u);
  EXPECT_TRUE(report.value().quarantined.empty());
  ASSERT_EQ(report.value().missing_partitions.size(), 1u);
  EXPECT_EQ(report.value().missing_partitions[0].partition, 1u);
  EXPECT_EQ(store.GetStoreStats().quarantines, 0u);
}

TEST(InMemorySampleStoreTest, TracksStoredBytes) {
  InMemorySampleStore store;
  EXPECT_EQ(store.TotalStoredBytes(), 0u);
  ASSERT_TRUE(store.Put({"ds", 0}, TestSample()).ok());
  const uint64_t one = store.TotalStoredBytes();
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(store.Put({"ds", 1}, TestSample()).ok());
  EXPECT_EQ(store.TotalStoredBytes(), 2 * one);
  ASSERT_TRUE(store.Delete({"ds", 0}).ok());
  EXPECT_EQ(store.TotalStoredBytes(), one);
}

TEST(FileSampleStoreTest, SamplesPersistAcrossReopen) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_store_reopen")
          .string();
  std::filesystem::remove_all(dir);
  {
    auto store = FileSampleStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put({"ds", 7}, TestSample(123)).ok());
  }
  {
    auto store = FileSampleStore::Open(dir);
    ASSERT_TRUE(store.ok());
    const auto loaded = store.value()->Get({"ds", 7});
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().parent_size(), 123u);
    EXPECT_EQ(store.value()->List("ds").value(),
              (std::vector<PartitionId>{7}));
  }
  std::filesystem::remove_all(dir);
}

TEST(FileSampleStoreTest, CorruptFileSurfacesError) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_store_corrupt")
          .string();
  std::filesystem::remove_all(dir);
  auto store = FileSampleStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Put({"ds", 0}, TestSample()).ok());
  // Clobber the file.
  ASSERT_TRUE(WriteFileAtomic(dir + "/ds.0.sample", "garbage").ok());
  EXPECT_FALSE(store.value()->Get({"ds", 0}).ok());
  std::filesystem::remove_all(dir);
}

TEST(FileSampleStoreTest, CorruptFileIsQuarantinedNotReServed) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_store_quarantine")
          .string();
  std::filesystem::remove_all(dir);
  auto store = FileSampleStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Put({"ds", 0}, TestSample()).ok());
  // Truncate mid-payload: a realistic torn write. The frame's length/CRC
  // framing must catch it.
  std::string bytes;
  ASSERT_TRUE(ReadFile(dir + "/ds.0.sample", &bytes).ok());
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/ds.0.sample",
                      std::string_view(bytes).substr(0, bytes.size() / 2))
          .ok());
  EXPECT_TRUE(store.value()->Get({"ds", 0}).status().IsCorruption());
  // The damaged file was moved aside: later reads are a clean miss, the
  // partition no longer lists or counts, and the evidence is preserved.
  EXPECT_TRUE(store.value()->Get({"ds", 0}).status().IsNotFound());
  EXPECT_TRUE(store.value()->List("ds").value().empty());
  EXPECT_EQ(store.value()->TotalStoredBytes(), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/ds.0.sample.quarantine"));
  std::filesystem::remove_all(dir);
}

TEST(FileSampleStoreTest, RefusesFilesOfAnOlderFormatAndMovesNothing) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sampwh_store_older_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  auto store = FileSampleStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Put({"ds", 0}, TestSample(100)).ok());
  ASSERT_TRUE(store.value()->Put({"ds", 1}, TestSample(200)).ok());
  ASSERT_TRUE(
      store.value()->PutCheckpoint("ds", IngestCheckpoint().Serialize()).ok());
  older_layout::Rewrite(dir);
  // Beside them, what recovery would otherwise quarantine and remove: a
  // damaged sample of this build's format and an orphan temp file.
  ASSERT_TRUE(WriteFileAtomic(dir + "/ds.2.sample", "damaged").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/ds.3.sample.tmp", "orphan").ok());
  const auto before = older_layout::DirectoryContents(dir);

  const Status get = store.value()->Get({"ds", 0}).status();
  EXPECT_TRUE(get.IsFailedPrecondition()) << get.ToString();
  EXPECT_NE(get.message().find("ds.0.sample"), std::string::npos);
  EXPECT_TRUE(store.value()->ContentDigest({"ds", 1})
                  .status()
                  .IsFailedPrecondition());
  const Status ckpt = store.value()->GetCheckpointChain("ds").status();
  EXPECT_TRUE(ckpt.IsFailedPrecondition()) << ckpt.ToString();
  EXPECT_NE(ckpt.message().find("ds.1.ckpt"), std::string::npos);
  const Status recovered =
      store.value()->Recover({{"ds", 0}, {"ds", 1}}).status();
  EXPECT_TRUE(recovered.IsFailedPrecondition()) << recovered.ToString();

  EXPECT_EQ(older_layout::DirectoryContents(dir), before);
  EXPECT_EQ(store.value()->GetStoreStats().quarantines, 0u);
  std::filesystem::remove_all(dir);
}

TEST(FileSampleStoreTest, TrailingBytesAfterTheSampleAreCorruption) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_store_trailing")
          .string();
  std::filesystem::remove_all(dir);
  auto store = FileSampleStore::Open(dir);
  ASSERT_TRUE(store.ok());
  // A well-formed sample with one byte behind it, in a valid frame and as
  // a bare payload: both are a different blob than the sample's own bytes,
  // so neither may decode to that sample.
  BinaryWriter writer;
  TestSample(321).SerializeTo(&writer);
  const std::string padded = writer.buffer() + std::string(1, '\0');
  for (const std::string& file : {EncodeFrame(padded), padded}) {
    ASSERT_TRUE(WriteFileAtomic(dir + "/ds.0.sample", file).ok());
    EXPECT_TRUE(store.value()->Get({"ds", 0}).status().IsCorruption());
  }
  std::filesystem::remove_all(dir);
}

TEST(FileSampleStoreTest, RecoverRemovesOrphanTempsAndKeepsSurvivors) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sampwh_store_recover")
          .string();
  std::filesystem::remove_all(dir);
  auto injector = std::make_shared<FaultInjector>(11);
  FaultEnv env(Env::Default(), injector);
  ASSERT_TRUE(env.CreateDir(dir).ok());
  SampleStore store(&env, dir);
  ASSERT_TRUE(store.Put({"ds", 0}, TestSample(100)).ok());

  // A write that crashes before its rename leaves an orphan temp file and
  // an untouched (absent) destination.
  injector->Arm(kFaultSitePutWrite, FaultKind::kCrashBeforeRename);
  EXPECT_TRUE(store.Put({"ds", 1}, TestSample(200)).IsIOError());
  EXPECT_TRUE(store.Get({"ds", 1}).status().IsNotFound());
  env.Restart();

  const auto report = store.Recover({{"ds", 0}, {"ds", 1}});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().removed_temps.size(), 1u);
  EXPECT_TRUE(report.value().quarantined.empty());
  ASSERT_EQ(report.value().missing_partitions.size(), 1u);
  EXPECT_EQ(report.value().missing_partitions[0].partition, 1u);
  // No stray temp remains; the survivor is intact.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp");
  }
  EXPECT_EQ(store.Get({"ds", 0}).value().parent_size(), 100u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sampwh
