// Deterministic concurrency stress harness for the sample warehouse.
//
// Each round builds a file-backed warehouse in a private temp directory,
// arms seeded probabilistic transient-IO faults on the store, and drives
// concurrent ingest, union queries, retention roll-out and dataset churn
// against it for a fixed wall-clock budget. After the threads quiesce the
// round checks the warehouse's cross-thread invariants:
//
//   1. No invalid results ever escape: every successful query Validates and
//      respects the merge footprint bound; the only tolerated errors under
//      injected transient faults are IOError (fault exceeded the retry
//      budget), NotFound (racing roll-out/drop) and InvalidArgument (racing
//      an emptied dataset). Corruption or Internal at any point fails the
//      round.
//   2. No stale cache entries: a quiesced roll-out leaves no Peek-able
//      sample-cache entry, and post-roll-out queries still succeed.
//   3. Cache footprints stay within their byte budgets under churn.
//   4. GetMany propagates a fetch whose reads fail past the retry budget
//      as a whole-call error.
//   5. Warm (memoized) union queries are bit-identical to cold ones.
//   6. Crash recovery: a torn write crashing a Put, followed by a restart
//      through RestoreWithRecovery, quarantines the torn file, brings
//      catalog and store back into agreement, and leaves the surviving
//      partitions queryable.
//   7. Crash-resumable ingestion: for every sampler kind, a checkpointed
//      StreamIngestor killed at a seeded arbitrary point and resumed
//      against an at-least-once replay of the stream rolls in samples
//      bit-identical to an uninterrupted run. Each round also rotates
//      through the asynchronous-checkpointing failure modes — a torn
//      mid-snapshot write, a torn WAL tail (delta append cut mid-record),
//      and a lost WAL append (crash between the delta append and its
//      becoming visible) — under an aggressive compaction cadence so
//      snapshot rotation races the delta/close traffic.
//
// Faults, workload choices and data are all derived from --seed, so a
// failing round reproduces with its printed seed. Thread interleavings are
// OS-scheduled — the invariants must hold under every interleaving.
//
// Usage: stress_runner [--smoke|--soak] [--seed=N] [--rounds=N]
//                      [--duration-ms=N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/testing/fault_env.h"
#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/util/status.h"
#include "src/warehouse/partitioner.h"
#include "src/warehouse/sample_store.h"
#include "src/warehouse/stream_ingestor.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {
namespace {

struct HarnessConfig {
  uint64_t seed = 0x57485354ULL;  // "WHST"
  int rounds = 4;
  std::chrono::milliseconds round_duration{1000};
  double transient_fault_probability = 0.04;
};

std::string Describe(const Status& status) {
  return std::string(StatusCodeToString(status.code())) + ": " +
         status.message();
}

std::string Bytes(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return writer.Release();
}

/// Collects invariant violations from every worker thread.
class Violations {
 public:
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(what);
  }
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(items_);
  }

 private:
  std::mutex mu_;
  std::vector<std::string> items_;
};

/// Errors a query/mutation may legitimately surface while transient IO
/// faults are armed and partitions are rolling out underneath it.
bool TolerableUnderFaults(const Status& status) {
  return status.IsIOError() ||
         status.code() == StatusCode::kNotFound ||
         status.code() == StatusCode::kInvalidArgument;
}

struct RoundStats {
  std::atomic<uint64_t> ingests{0};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> rollouts{0};
  std::atomic<uint64_t> tolerated_errors{0};
};

class StressRound {
 public:
  StressRound(uint64_t seed, std::chrono::milliseconds duration,
              double fault_probability)
      : seed_(seed), duration_(duration),
        fault_probability_(fault_probability), rng_(seed, 0x57485354ULL) {}

  /// Runs one full scenario; returns the violations found (empty = pass).
  std::vector<std::string> Run() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("sampwh_stress_" + std::to_string(seed_)))
               .string();
    std::filesystem::remove_all(dir_);
    if (!OpenWarehouse()) return violations_.Take();

    for (const char* ds : kDatasets) {
      if (Status s = warehouse_->CreateDataset(ds); !s.ok()) {
        violations_.Add(std::string("CreateDataset ") + ds + ": " +
                        Describe(s));
        return violations_.Take();
      }
    }
    // Seed every dataset so the first queries have partitions to merge.
    for (const char* ds : kDatasets) Ingest(ds, /*tolerate_faults=*/false);

    ArmTransientFaults();
    RunConcurrentPhase();
    injector_->DisarmAll();

    CheckQuiescedQueries();
    CheckStaleCacheOnRollOut();
    CheckCacheFootprints();
    CheckGetManyPropagation();
    CheckWarmColdIdentity();
    CheckTornWriteRecovery();
    CheckCrashResumeIngestion();

    if (warehouse_ != nullptr) {
      AccumulateStoreStats(warehouse_->store_for_testing()->GetStoreStats());
    }
    warehouse_.reset();
    std::filesystem::remove_all(dir_);
    return violations_.Take();
  }

  const RoundStats& stats() const { return stats_; }
  const StoreStats& store_stats() const { return store_stats_; }

 private:
  static constexpr const char* kDatasets[3] = {"stress_a", "stress_b",
                                               "stress_churn"};
  /// The store's retry budget (tries per operation).
  static constexpr int kStoreAttempts = 3;

  bool OpenWarehouse() {
    injector_ = std::make_shared<FaultInjector>(seed_);
    env_ = std::make_unique<FaultEnv>(Env::Default(), injector_);
    if (Status s = env_->CreateDir(dir_); !s.ok()) {
      violations_.Add("open store: " + Describe(s));
      return false;
    }
    auto store = std::make_unique<SampleStore>(env_.get(), dir_);
    // Tight backoff keeps retry storms cheap inside the harness budget.
    store->SetRetryPolicy({.max_attempts = kStoreAttempts,
                           .initial_backoff = std::chrono::microseconds(20)});

    WarehouseOptions options;
    options.sampler.kind = SamplerKind::kHybridReservoir;
    options.sampler.footprint_bound_bytes = 1024;
    options.merge.footprint_bound_bytes = 1024;
    options.worker_threads = 2;
    options.sample_cache_bytes = 256 << 10;
    options.merge_memo_bytes = 256 << 10;
    options.seed = seed_;
    warehouse_ = std::make_unique<Warehouse>(options, std::move(store));
    return true;
  }

  void ArmTransientFaults() {
    injector_->ArmRandom(kFaultSitePutWrite, FaultKind::kIOError,
                         fault_probability_);
    injector_->ArmRandom(kFaultSiteGetRead, FaultKind::kIOError,
                         fault_probability_);
    injector_->ArmRandom(kFaultSiteDelete, FaultKind::kIOError,
                         fault_probability_);
  }

  void Ingest(const std::string& ds, bool tolerate_faults) {
    const uint64_t base = next_value_.fetch_add(4096);
    std::vector<Value> values;
    values.reserve(4096);
    for (uint64_t v = base; v < base + 4096; ++v) values.push_back(v);
    Result<std::vector<PartitionId>> ids =
        warehouse_->IngestBatch(ds, values, 2);
    if (ids.ok()) {
      stats_.ingests += ids.value().size();
    } else if (tolerate_faults && TolerableUnderFaults(ids.status())) {
      ++stats_.tolerated_errors;
    } else {
      violations_.Add("IngestBatch(" + ds + "): " + Describe(ids.status()));
    }
  }

  void CheckQueryResult(const std::string& ds,
                        const Result<PartitionSample>& result,
                        bool tolerate_faults) {
    if (!result.ok()) {
      if (tolerate_faults && TolerableUnderFaults(result.status())) {
        ++stats_.tolerated_errors;
      } else {
        violations_.Add("query(" + ds + "): " + Describe(result.status()));
      }
      return;
    }
    ++stats_.queries;
    if (Status s = result.value().Validate(); !s.ok()) {
      violations_.Add("query(" + ds + ") returned invalid sample: " +
                      Describe(s));
    }
    const uint64_t bound = warehouse_->options().merge.footprint_bound_bytes;
    if (result.value().footprint_bytes() > bound) {
      violations_.Add("query(" + ds + ") breached merge footprint bound: " +
                      std::to_string(result.value().footprint_bytes()) +
                      " > " + std::to_string(bound));
    }
  }

  void RunConcurrentPhase() {
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;

    // Ingesters: one per long-lived dataset.
    for (const char* ds : {kDatasets[0], kDatasets[1]}) {
      workers.emplace_back([this, ds, &stop] {
        while (!stop.load(std::memory_order_relaxed)) {
          Ingest(ds, /*tolerate_faults=*/true);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    // Query workers: whole-dataset unions plus explicit subsets, racing the
    // ingesters and the retention thread.
    for (int q = 0; q < 2; ++q) {
      workers.emplace_back([this, q, &stop] {
        Pcg64 rng(seed_, 0xC0FFEE00ULL + static_cast<uint64_t>(q));
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string ds =
              kDatasets[rng.NextUint64() % 2];  // long-lived only
          if (rng.Bernoulli(0.5)) {
            CheckQueryResult(ds, warehouse_->MergedSampleAll(ds),
                             /*tolerate_faults=*/true);
          } else {
            Result<std::vector<PartitionInfo>> infos =
                warehouse_->ListPartitions(ds);
            if (!infos.ok() || infos.value().size() < 2) continue;
            // A sliding-window union over the oldest half: maximizes
            // overlap with concurrent retention roll-out.
            std::vector<PartitionId> ids;
            for (size_t i = 0; i < infos.value().size() / 2; ++i) {
              ids.push_back(infos.value()[i].id);
            }
            CheckQueryResult(ds, warehouse_->MergedSample(ds, ids),
                             /*tolerate_faults=*/true);
          }
        }
      });
    }
    // Retention: keeps each long-lived dataset bounded, constantly rolling
    // the oldest partitions out from under the query workers.
    workers.emplace_back([this, &stop] {
      RetentionPolicy policy;
      policy.keep_last_partitions = 8;
      while (!stop.load(std::memory_order_relaxed)) {
        for (const char* ds : {kDatasets[0], kDatasets[1]}) {
          Result<std::vector<PartitionId>> rolled =
              warehouse_->ApplyRetention(ds, policy, 0);
          if (rolled.ok()) {
            stats_.rollouts += rolled.value().size();
          } else if (TolerableUnderFaults(rolled.status())) {
            ++stats_.tolerated_errors;
          } else {
            violations_.Add(std::string("ApplyRetention(") + ds + "): " +
                            Describe(rolled.status()));
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    // Churn: drop/recreate one dataset, exercising epoch-bump invalidation
    // against in-flight readers.
    workers.emplace_back([this, &stop] {
      const std::string ds = kDatasets[2];
      while (!stop.load(std::memory_order_relaxed)) {
        Ingest(ds, /*tolerate_faults=*/true);
        Status dropped = warehouse_->DropDataset(ds);
        if (!dropped.ok() && !TolerableUnderFaults(dropped)) {
          violations_.Add("DropDataset: " + Describe(dropped));
        }
        Status created = warehouse_->CreateDataset(ds);
        if (!created.ok() &&
            created.code() != StatusCode::kAlreadyExists) {
          violations_.Add("CreateDataset churn: " + Describe(created));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });

    std::this_thread::sleep_for(duration_);
    stop.store(true);
    for (std::thread& t : workers) t.join();
  }

  // --- Quiesced invariant checks -----------------------------------------

  void CheckQuiescedQueries() {
    for (const char* ds : {kDatasets[0], kDatasets[1]}) {
      CheckQueryResult(ds, warehouse_->MergedSampleAll(ds),
                       /*tolerate_faults=*/false);
    }
  }

  void CheckStaleCacheOnRollOut() {
    const std::string ds = kDatasets[0];
    Result<std::vector<PartitionInfo>> infos = warehouse_->ListPartitions(ds);
    if (!infos.ok() || infos.value().size() < 2) return;
    const PartitionId victim = infos.value().front().id;
    // Warm the cache so the victim is definitely resident, then roll out.
    if (!warehouse_->MergedSampleAll(ds).ok()) {
      violations_.Add("stale-cache check: warmup query failed");
      return;
    }
    if (Status s = warehouse_->RollOut(ds, victim); !s.ok()) {
      violations_.Add("stale-cache check: RollOut: " + Describe(s));
      return;
    }
    const SampleCache* cache = warehouse_->sample_cache_for_testing();
    const uint64_t epoch = cache->CurrentView(ds).epoch;
    if (cache->Peek(ds, epoch, victim) != nullptr) {
      violations_.Add("stale sample-cache entry survived quiesced roll-out "
                      "of partition " + std::to_string(victim));
    }
    CheckQueryResult(ds, warehouse_->MergedSampleAll(ds),
                     /*tolerate_faults=*/false);
  }

  void CheckCacheFootprints() {
    const WarehouseCacheStats stats = warehouse_->GetCacheStats();
    const WarehouseOptions& options = warehouse_->options();
    if (stats.sample_cache.bytes > options.sample_cache_bytes) {
      violations_.Add("sample cache over budget: " +
                      std::to_string(stats.sample_cache.bytes) + " > " +
                      std::to_string(options.sample_cache_bytes));
    }
    if (stats.merge_memo.bytes > options.merge_memo_bytes) {
      violations_.Add("merge memo over budget: " +
                      std::to_string(stats.merge_memo.bytes) + " > " +
                      std::to_string(options.merge_memo_bytes));
    }
  }

  void CheckGetManyPropagation() {
    const std::string ds = kDatasets[1];
    Result<std::vector<PartitionInfo>> infos = warehouse_->ListPartitions(ds);
    if (!infos.ok() || infos.value().empty()) return;
    std::vector<PartitionKey> keys;
    for (const PartitionInfo& p : infos.value()) {
      keys.push_back(PartitionKey{ds, p.id});
    }
    // One fetch among N keys whose reads fail past the retry budget: the
    // whole call must fail.
    const size_t skip = rng_.NextUint64() % keys.size();
    injector_->Arm(kFaultSiteGetRead, FaultKind::kIOError, kStoreAttempts,
                   skip);
    Result<std::vector<PartitionSample>> got =
        warehouse_->store_for_testing()->GetMany(keys);
    injector_->Disarm(kFaultSiteGetRead);
    if (got.ok()) {
      violations_.Add("GetMany swallowed a failed fetch "
                      "(returned " + std::to_string(got.value().size()) +
                      " samples)");
    } else if (!got.status().IsIOError()) {
      violations_.Add("GetMany propagated wrong category: " +
                      Describe(got.status()));
    }
  }

  void CheckWarmColdIdentity() {
    const std::string ds = kDatasets[0];
    Result<PartitionSample> cold = warehouse_->MergedSampleAll(ds);
    Result<PartitionSample> warm = warehouse_->MergedSampleAll(ds);
    if (!cold.ok() || !warm.ok()) {
      violations_.Add("warm/cold check: query failed");
      return;
    }
    if (Bytes(cold.value()) != Bytes(warm.value())) {
      violations_.Add("memoized warm query differs from its predecessor");
    }
    warehouse_->InvalidateCaches();
    Result<PartitionSample> refetched = warehouse_->MergedSampleAll(ds);
    if (!refetched.ok() ||
        Bytes(refetched.value()) != Bytes(cold.value())) {
      violations_.Add("post-invalidation query differs from warm query "
                      "(memoized results must be cache-state independent)");
    }
  }

  void CheckTornWriteRecovery() {
    const std::string ds = kDatasets[0];
    Result<std::vector<PartitionInfo>> infos = warehouse_->ListPartitions(ds);
    if (!infos.ok() || infos.value().size() < 2) return;
    const PartitionId victim = infos.value().front().id;
    Result<PartitionSample> sample = warehouse_->GetSample(ds, victim);
    if (!sample.ok()) {
      violations_.Add("recovery check: GetSample: " +
                      Describe(sample.status()));
      return;
    }
    const std::string manifest = dir_ + "/manifest";
    if (Status s = warehouse_->SaveManifest(manifest); !s.ok()) {
      violations_.Add("recovery check: SaveManifest: " + Describe(s));
      return;
    }
    // Crash a rewrite of the victim's sample mid-write: the destination
    // file ends up torn.
    injector_->Arm(kFaultSitePutWrite, FaultKind::kTornWrite);
    Status torn = warehouse_->store_for_testing()->Put(
        PartitionKey{ds, victim}, sample.value());
    injector_->Disarm(kFaultSitePutWrite);
    if (!torn.IsIOError()) {
      violations_.Add("recovery check: torn Put did not surface IOError");
      return;
    }
    AccumulateStoreStats(warehouse_->store_for_testing()->GetStoreStats());
    warehouse_.reset();  // "crash": drop all in-memory state

    auto store = FileSampleStore::Open(dir_);
    if (!store.ok()) {
      violations_.Add("recovery check: reopen: " + Describe(store.status()));
      return;
    }
    WarehouseOptions options;
    options.sampler.kind = SamplerKind::kHybridReservoir;
    options.sampler.footprint_bound_bytes = 1024;
    options.merge.footprint_bound_bytes = 1024;
    options.sample_cache_bytes = 256 << 10;
    options.merge_memo_bytes = 256 << 10;
    options.seed = seed_;
    Result<Warehouse::RestoredWarehouse> restored =
        Warehouse::RestoreWithRecovery(options, std::move(store).value(),
                                       manifest);
    if (!restored.ok()) {
      violations_.Add("RestoreWithRecovery failed: " +
                      Describe(restored.status()));
      return;
    }
    if (restored.value().report.quarantined.empty()) {
      violations_.Add("recovery did not quarantine the torn sample file");
    }
    bool victim_dropped = false;
    for (const PartitionKey& key : restored.value().dropped_partitions) {
      victim_dropped |= key.dataset == ds && key.partition == victim;
    }
    if (!victim_dropped) {
      violations_.Add("recovery did not drop the torn partition from the "
                      "catalog");
    }
    warehouse_ = std::move(restored.value().warehouse);
    // Catalog and store agree; the survivors answer queries.
    Result<std::vector<PartitionInfo>> after = warehouse_->ListPartitions(ds);
    if (!after.ok()) {
      violations_.Add("recovery check: ListPartitions after restore: " +
                      Describe(after.status()));
      return;
    }
    for (const PartitionInfo& p : after.value()) {
      if (p.id == victim) {
        violations_.Add("torn partition still cataloged after recovery");
      }
      if (!warehouse_->GetSample(ds, p.id).ok()) {
        violations_.Add("surviving partition " + std::to_string(p.id) +
                        " unreadable after recovery");
      }
    }
    CheckQueryResult(ds, warehouse_->MergedSampleAll(ds),
                     /*tolerate_faults=*/false);
  }

  // --- Crash-resumable ingestion (invariant 7) ----------------------------

  void AccumulateStoreStats(const StoreStats& s) {
    store_stats_.retries_attempted += s.retries_attempted;
    store_stats_.retries_exhausted += s.retries_exhausted;
    store_stats_.quarantines += s.quarantines;
    store_stats_.recovered_temps += s.recovered_temps;
    store_stats_.checkpoints_written += s.checkpoints_written;
    store_stats_.checkpoints_restored += s.checkpoints_restored;
    store_stats_.wal_appends += s.wal_appends;
    store_stats_.wal_records_appended += s.wal_records_appended;
    store_stats_.wal_tails_truncated += s.wal_tails_truncated;
  }

  WarehouseOptions ResumeOptions(SamplerKind kind, uint64_t scenario_seed,
                                 const std::string& manifest) {
    WarehouseOptions options;
    options.sampler.kind = kind;
    options.sampler.footprint_bound_bytes = 512;
    options.sampler.expected_partition_size = 400;
    options.sampler.bernoulli_rate = 0.05;
    options.seed = scenario_seed;
    options.manifest_path = manifest;
    return options;
  }

  std::vector<std::string> RolledInBytes(Warehouse& warehouse,
                                         const std::string& ds,
                                         const std::string& label) {
    std::vector<std::string> out;
    Result<std::vector<PartitionInfo>> parts = warehouse.ListPartitions(ds);
    if (!parts.ok()) {
      violations_.Add(label + ": ListPartitions: " + Describe(parts.status()));
      return out;
    }
    for (const PartitionInfo& p : parts.value()) {
      Result<PartitionSample> sample = warehouse.GetSample(ds, p.id);
      if (!sample.ok()) {
        violations_.Add(label + ": GetSample(" + std::to_string(p.id) +
                        "): " + Describe(sample.status()));
        return out;
      }
      out.push_back(Bytes(sample.value()));
    }
    return out;
  }

  /// Asynchronous-checkpointing failure mode injected into one
  /// crash-resume scenario.
  enum class CrashFault {
    kNone,
    /// A full-snapshot write tears mid-file (the classic torn checkpoint).
    kTornCheckpoint,
    /// A WAL delta append is cut mid-record: the tail must be truncated to
    /// the last whole CRC-verified record on recovery.
    kTornWalTail,
    /// A WAL append vanishes entirely — the crash lands between the append
    /// and the records becoming visible; the chain resolves to an earlier
    /// (still valid) resume point.
    kLostWalAppend,
  };

  static const char* CrashFaultName(CrashFault fault) {
    switch (fault) {
      case CrashFault::kNone: return "";
      case CrashFault::kTornCheckpoint: return ",torn-ckpt";
      case CrashFault::kTornWalTail: return ",torn-wal";
      case CrashFault::kLostWalAppend: return ",lost-wal";
    }
    return "";
  }

  /// One kill-at-an-arbitrary-point scenario: ingest with asynchronous
  /// checkpoints until a seeded kill point (earlier if an injected close-
  /// barrier fault surfaces), destroy every in-memory object, restore +
  /// resume, replay the source stream from sequence 0, and demand
  /// bit-identity with an uninterrupted run.
  void RunCrashResumeScenario(SamplerKind kind, CrashFault fault) {
    const uint64_t scenario_seed = rng_.NextUint64();
    const std::string label =
        std::string("crash-resume(") + std::string(SamplerKindToString(kind)) +
        CrashFaultName(fault) + ")";
    const std::string ds = "resume";
    const uint64_t total = 1200;
    std::vector<Value> values;
    values.reserve(total);
    for (uint64_t v = 0; v < total; ++v) {
      values.push_back(static_cast<Value>(scenario_seed % 4096 + v));
    }
    const uint64_t kill_point = rng_.NextUint64() % (total + 1);
    CheckpointPolicy policy{.every_n_elements = 32 + rng_.NextUint64() % 224};
    // Aggressive writer cadences: frequent group commits and a tiny
    // compaction bound force snapshot rotation to race the delta and close
    // traffic within the scenario's short lifetime.
    policy.group_commit_micros = 100 + rng_.NextUint64() % 400;
    policy.snapshot_every_deltas = 1 + rng_.NextUint64() % 8;

    // Uninterrupted reference (in-memory store, same seed => same RNG).
    std::vector<std::string> want;
    {
      Warehouse reference(ResumeOptions(kind, scenario_seed, ""));
      if (!reference.CreateDataset(ds).ok()) {
        violations_.Add(label + ": reference CreateDataset failed");
        return;
      }
      StreamIngestor ingestor(&reference, ds, MakeCountPartitioner(400));
      if (!ingestor.AppendBatch(values).ok() || !ingestor.Flush().ok()) {
        violations_.Add(label + ": reference ingest failed");
        return;
      }
      want = RolledInBytes(reference, ds, label + " reference");
    }

    const std::string subdir = dir_ + "/" + label;
    std::filesystem::remove_all(subdir);
    const std::string manifest = subdir + "/manifest";
    const WarehouseOptions options =
        ResumeOptions(kind, scenario_seed, manifest);

    // Run 1: checkpointed ingest, killed at kill_point — or earlier if an
    // injected fault surfaces through the close-A durability barrier (the
    // only checkpoint write an async Append still waits on; cadence-path
    // failures are contained in the background writer). Each injected
    // fault is a crash: from it on the store persists nothing more, so the
    // run is as good as killed at the fault.
    {
      auto injector = std::make_shared<FaultInjector>(scenario_seed);
      FaultEnv env(Env::Default(), injector);
      if (Status s = env.CreateDir(subdir); !s.ok()) {
        violations_.Add(label + ": open store: " + Describe(s));
        return;
      }
      switch (fault) {
        case CrashFault::kNone:
          break;
        case CrashFault::kTornCheckpoint:
          injector->Arm(kFaultSiteCheckpointWrite, FaultKind::kTornWrite,
                        /*count=*/1, /*skip=*/rng_.NextUint64() % 4);
          break;
        case CrashFault::kTornWalTail:
          injector->Arm(kFaultSiteWalAppend, FaultKind::kTornWrite,
                        /*count=*/1, /*skip=*/rng_.NextUint64() % 4);
          break;
        case CrashFault::kLostWalAppend:
          injector->Arm(kFaultSiteWalAppend, FaultKind::kCrashBeforeRename,
                        /*count=*/1, /*skip=*/rng_.NextUint64() % 4);
          break;
      }
      Warehouse warehouse(options,
                          std::make_unique<SampleStore>(&env, subdir));
      if (!warehouse.CreateDataset(ds).ok()) {
        violations_.Add(label + ": CreateDataset failed");
        return;
      }
      StreamIngestor ingestor(&warehouse, ds, MakeCountPartitioner(400));
      ingestor.EnableCheckpoints(policy);
      uint64_t i = 0;
      while (i < kill_point) {
        const uint64_t chunk = std::min<uint64_t>(kill_point - i, 17);
        const Status s = ingestor.AppendBatchAt(
            i, std::span<const Value>(values).subspan(i, chunk));
        if (s.IsIOError()) break;  // close-A barrier fault: crash here
        if (!s.ok()) {
          violations_.Add(label + ": ingest: " + Describe(s));
          return;
        }
        i = ingestor.next_sequence();
      }
      AccumulateStoreStats(
          warehouse.store_for_testing()->GetStoreStats());
      // "Crash": warehouse and ingestor destroyed, nothing flushed.
    }

    // Restart: recover, resume, replay the whole stream from sequence 0.
    auto store = FileSampleStore::Open(subdir);
    if (!store.ok()) {
      violations_.Add(label + ": reopen: " + Describe(store.status()));
      return;
    }
    Result<Warehouse::RestoredWarehouse> restored =
        Warehouse::RestoreWithRecovery(options, std::move(store).value(),
                                       manifest);
    if (!restored.ok()) {
      violations_.Add(label + ": RestoreWithRecovery: " +
                      Describe(restored.status()));
      return;
    }
    Warehouse& warehouse = *restored.value().warehouse;
    std::unique_ptr<StreamIngestor> ingestor;
    Result<std::unique_ptr<StreamIngestor>> resumed = StreamIngestor::Resume(
        &warehouse, ds, MakeCountPartitioner(400), policy);
    if (resumed.ok()) {
      ingestor = std::move(resumed).value();
    } else if (resumed.status().IsNotFound()) {
      // Killed before the first checkpoint: nothing was rolled in either,
      // so a fresh ingestor replaying from 0 reproduces the run (it forks
      // the same first RNG stream from the restored warehouse seed).
      ingestor = std::make_unique<StreamIngestor>(&warehouse, ds,
                                                  MakeCountPartitioner(400));
      ingestor->EnableCheckpoints(policy);
    } else {
      violations_.Add(label + ": Resume: " + Describe(resumed.status()));
      return;
    }
    if (ingestor->next_sequence() > kill_point) {
      violations_.Add(label + ": watermark " +
                      std::to_string(ingestor->next_sequence()) +
                      " ahead of kill point " + std::to_string(kill_point));
    }
    for (uint64_t i = 0; i < total;) {
      const uint64_t chunk = std::min<uint64_t>(total - i, 23);
      const Status s = ingestor->AppendBatchAt(
          i, std::span<const Value>(values).subspan(i, chunk));
      if (!s.ok()) {
        violations_.Add(label + ": replay at " + std::to_string(i) + ": " +
                        Describe(s));
        return;
      }
      i += chunk;
    }
    if (ingestor->next_sequence() != total) {
      violations_.Add(label + ": replay watermark " +
                      std::to_string(ingestor->next_sequence()) + " != " +
                      std::to_string(total));
      return;
    }
    if (const Status s = ingestor->Flush(); !s.ok()) {
      violations_.Add(label + ": Flush: " + Describe(s));
      return;
    }
    const std::vector<std::string> got =
        RolledInBytes(warehouse, ds, label + " resumed");
    if (got != want) {
      violations_.Add(label + ": resumed run is not bit-identical to the "
                      "uninterrupted run (" + std::to_string(got.size()) +
                      " vs " + std::to_string(want.size()) + " partitions)");
    }
    AccumulateStoreStats(warehouse.store_for_testing()->GetStoreStats());
  }

  void CheckCrashResumeIngestion() {
    static constexpr SamplerKind kKinds[] = {SamplerKind::kHybridBernoulli,
                                             SamplerKind::kHybridReservoir,
                                             SamplerKind::kStratifiedBernoulli};
    for (SamplerKind kind : kKinds) {
      RunCrashResumeScenario(kind, CrashFault::kNone);
    }
    // Each async-checkpointing failure mode, on seed-rotated kinds.
    RunCrashResumeScenario(kKinds[seed_ % 3], CrashFault::kTornCheckpoint);
    RunCrashResumeScenario(kKinds[(seed_ + 1) % 3], CrashFault::kTornWalTail);
    RunCrashResumeScenario(kKinds[(seed_ + 2) % 3],
                           CrashFault::kLostWalAppend);
  }

  const uint64_t seed_;
  const std::chrono::milliseconds duration_;
  const double fault_probability_;
  Pcg64 rng_;
  std::string dir_;
  std::shared_ptr<FaultInjector> injector_;
  std::unique_ptr<FaultEnv> env_;  // outlives warehouse_, its store's Env
  std::unique_ptr<Warehouse> warehouse_;
  std::atomic<uint64_t> next_value_{0};
  Violations violations_;
  RoundStats stats_;
  /// Reliability counters summed over every store the round opened (the
  /// main store plus each crash-resume scenario store).
  StoreStats store_stats_;
};

int RunHarness(const HarnessConfig& config) {
  int failures = 0;
  for (int round = 0; round < config.rounds; ++round) {
    const uint64_t seed = config.seed + static_cast<uint64_t>(round);
    StressRound runner(seed, config.round_duration,
                       config.transient_fault_probability);
    std::vector<std::string> violations = runner.Run();
    const RoundStats& stats = runner.stats();
    std::cout << "round " << round << " seed=" << seed
              << " ingests=" << stats.ingests.load()
              << " queries=" << stats.queries.load()
              << " rollouts=" << stats.rollouts.load()
              << " tolerated_errors=" << stats.tolerated_errors.load()
              << (violations.empty() ? " PASS" : " FAIL") << "\n";
    const StoreStats& ss = runner.store_stats();
    std::cout << "  store: retries=" << ss.retries_attempted
              << " exhausted=" << ss.retries_exhausted
              << " quarantines=" << ss.quarantines
              << " recovered_temps=" << ss.recovered_temps
              << " ckpt_written=" << ss.checkpoints_written
              << " ckpt_restored=" << ss.checkpoints_restored
              << " wal_appends=" << ss.wal_appends
              << " wal_records=" << ss.wal_records_appended
              << " wal_tails_truncated=" << ss.wal_tails_truncated << "\n";
    for (const std::string& v : violations) {
      std::cout << "  VIOLATION: " << v << "\n";
      ++failures;
    }
  }
  if (failures == 0) {
    std::cout << "stress: all rounds passed\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sampwh

int main(int argc, char** argv) {
  sampwh::HarnessConfig config;
  if (const char* soak = std::getenv("STRESS_SOAK");
      soak != nullptr && std::strcmp(soak, "0") != 0) {
    config.rounds = 16;
    config.round_duration = std::chrono::milliseconds(2000);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.rounds = 2;
      config.round_duration = std::chrono::milliseconds(400);
    } else if (arg == "--soak") {
      config.rounds = 16;
      config.round_duration = std::chrono::milliseconds(2000);
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--rounds=", 0) == 0) {
      config.rounds = std::stoi(arg.substr(9));
    } else if (arg.rfind("--duration-ms=", 0) == 0) {
      config.round_duration =
          std::chrono::milliseconds(std::stoll(arg.substr(14)));
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: stress_runner [--smoke|--soak] [--seed=N] "
                   "[--rounds=N] [--duration-ms=N]\n";
      return 2;
    }
  }
  return sampwh::RunHarness(config);
}
