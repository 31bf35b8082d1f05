// Persistence for partition samples. The sample warehouse keeps one
// serialized PartitionSample per (dataset, partition); roll-in writes it,
// roll-out deletes it, queries read subsets back for merging. There is one
// store: a directory of one file per sample (atomic replace) plus ingest
// checkpoint generations and their delta WALs, written against the Env
// filesystem seam (util/env.h). FileSampleStore runs it over the real
// filesystem for durability; InMemorySampleStore over a private MemEnv for
// tests and simulations. Both behave identically, byte for byte.
//
// Read-path concurrency: Get never holds a lock across deserialization, and
// locking is striped per key, so concurrent Gets of different partitions
// do parallel IO. GetMany overlays deserialization across partitions on a
// caller-provided thread pool — the warehouse query path uses it to
// prefetch every partition of a union query at once.
//
// Robustness: samples are persisted in the versioned, CRC-framed envelope
// of util/serialization (format v2; bare v1 payloads stay readable), so a
// torn, truncated or bit-rotted sample is detected on read — Corruption is
// surfaced and the damaged file quarantined (renamed aside, never silently
// deserialized). Transient IO faults are retried with bounded exponential
// backoff. Recover() reconciles persisted state after a crash: orphan temp
// files are dropped, samples that fail verification quarantined, and
// expected-but-missing partitions reported.
//
// The store reaches the filesystem only through its Env and carries no
// code for tests: failure paths are driven by wrapping that Env
// (testing/fault_env.h injects faults by operation and file suffix).

#ifndef SAMPWH_WAREHOUSE_SAMPLE_STORE_H_
#define SAMPWH_WAREHOUSE_SAMPLE_STORE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/sample.h"
#include "src/util/env.h"
#include "src/util/thread_pool.h"
#include "src/warehouse/checkpoint.h"
#include "src/warehouse/ids.h"

namespace sampwh {

/// What a Recover() scan found and did. File names are basenames within
/// the store directory ("ds.0.sample").
struct RecoveryReport {
  /// Sample files (or blobs) whose content was examined.
  uint64_t scanned = 0;
  /// Unreadable / corrupt samples renamed aside (see QuarantineDestination).
  std::vector<std::string> quarantined;
  /// Orphan "*.tmp" files from writes that crashed before their rename.
  std::vector<std::string> removed_temps;
  /// Keys from `expected` whose samples are absent or were quarantined.
  std::vector<PartitionKey> missing_partitions;
  /// Ingest-checkpoint generations that failed verification and were
  /// quarantined.
  std::vector<std::string> quarantined_checkpoints;
  /// Checkpoint WALs whose tail failed CRC framing or deep record
  /// verification and was truncated back to the last good record — the
  /// expected artifact of a crash mid-append.
  std::vector<std::string> truncated_wal_tails;
  /// Checkpoint WALs with no surviving snapshot generation (quarantined
  /// whole — their records cannot anchor to anything).
  std::vector<std::string> orphaned_wals;
  /// Filled by Warehouse::RestoreWithRecovery: datasets that had stored
  /// checkpoints but no longer exist in the catalog (checkpoints deleted).
  std::vector<DatasetId> stale_checkpoints;
};

/// Cumulative reliability counters for one store instance, covering samples
/// and ingest checkpoints.
struct StoreStats {
  /// Backoff-then-retry cycles taken after a transient IO fault.
  uint64_t retries_attempted = 0;
  /// Operations that failed even after exhausting the retry budget.
  uint64_t retries_exhausted = 0;
  /// Corrupt samples or checkpoints moved aside.
  uint64_t quarantines = 0;
  /// Orphan temp files removed by Recover().
  uint64_t recovered_temps = 0;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoints_restored = 0;
  /// Group-committed delta appends to checkpoint WALs, and the total
  /// records those groups carried.
  uint64_t wal_appends = 0;
  uint64_t wal_records_appended = 0;
  /// WAL tails truncated by Recover() after a torn or corrupt record.
  uint64_t wal_tails_truncated = 0;
};

/// The sample store over one directory of an Env; thread-safe. Sample
/// operations lock one of kLockStripes stripes per key, so operations on
/// keys hashed to different stripes run fully concurrently and a slow read
/// of one partition never blocks reads of others. Checkpoint bookkeeping
/// has its own lock, so checkpoint traffic never blocks sample reads.
class SampleStore {
 public:
  /// Bounded retry for transient IO faults: `max_attempts` tries total,
  /// exponential backoff starting at `initial_backoff` between them. Only
  /// IOError is retried — NotFound and Corruption never are.
  struct RetryPolicy {
    int max_attempts = 3;
    std::chrono::microseconds initial_backoff{200};
  };

  /// A store of the files under `directory` in `env`. The directory must
  /// exist and `env` must outlive the store.
  SampleStore(Env* env, std::string directory);
  SampleStore(const SampleStore&) = delete;
  SampleStore& operator=(const SampleStore&) = delete;
  virtual ~SampleStore() = default;

  /// Stores (replacing) the sample for `key`.
  Status Put(const PartitionKey& key, const PartitionSample& sample);

  /// Loads the sample for `key`; NotFound if absent, Corruption if the
  /// stored bytes fail envelope verification or decoding. A corrupt file
  /// is quarantined, so the next Get of the key is NotFound.
  Result<PartitionSample> Get(const PartitionKey& key) const;

  /// Loads the samples for `keys`, in order; fails on the first missing
  /// key. With a pool, fetches run as one task per key so reads and
  /// deserialization overlap across partitions. Must not be called from a
  /// task already running on `pool`. Errors propagate whole: a failed
  /// fetch fails the call, never yields a partial vector.
  Result<std::vector<PartitionSample>> GetMany(
      const std::vector<PartitionKey>& keys, ThreadPool* pool = nullptr) const;

  /// Digest of the stored sample's logical content for `key`: a CRC32 of
  /// the serialized payload (envelope stripped) folded with its length.
  /// Replicas holding the same sample agree on this value, so cross-node
  /// anti-entropy comparison never ships sample bytes. NotFound if absent;
  /// Corruption if the stored bytes fail envelope verification (the file
  /// is quarantined exactly as Get would, so a corrupt replica reads as
  /// missing on the next scan).
  Result<uint64_t> ContentDigest(const PartitionKey& key) const;

  /// Removes the sample for `key`; NotFound if absent.
  Status Delete(const PartitionKey& key);

  /// All partition ids stored for `dataset`, ascending.
  Result<std::vector<PartitionId>> List(const DatasetId& dataset) const;

  /// Total bytes of the stored sample files (enveloped bytes). Quarantined
  /// files and orphan temps don't count.
  uint64_t TotalStoredBytes() const;

  /// Startup reconciliation after a crash: removes orphan "*.tmp" files,
  /// quarantines sample files that fail envelope/decode/Validate and
  /// checkpoint files that fail full structural verification, truncates
  /// WAL tails that fail deep verification, quarantines WALs whose
  /// snapshot did not survive, and reports which of `expected` (typically
  /// the catalog's partition set) cannot be served. Only a verification
  /// failure quarantines: a file that vanished after the listing is
  /// skipped, and a read or truncation that still fails after the retry
  /// policy fails the call (IOError) with healthy files left in place.
  /// Call before serving traffic; not safe concurrently with
  /// Put/Get/Delete.
  Result<RecoveryReport> Recover(const std::vector<PartitionKey>& expected = {});

  // --- Ingest checkpoints -------------------------------------------------
  //
  // One logical checkpoint per dataset, stored generationally as
  // "<dataset>.<generation>.ckpt" (the newest two generations are kept) so a
  // write torn mid-checkpoint never loses the previous good one. `payload`
  // is an IngestCheckpoint record; the store frames it in the CRC'd SWV2
  // envelope like every sample.

  /// Persists a new checkpoint generation for `dataset` and prunes old
  /// generations beyond the newest two. Transient write faults are retried
  /// like sample writes.
  Status PutCheckpoint(const DatasetId& dataset, std::string_view payload);

  /// The newest checkpoint payload for `dataset` that passes envelope
  /// verification. A corrupt newest generation is quarantined and the
  /// previous one served instead; NotFound when no valid generation
  /// remains.
  Result<std::string> GetCheckpoint(const DatasetId& dataset) const;

  /// Removes every checkpoint generation for `dataset`; NotFound when none
  /// exist.
  Status DeleteCheckpoint(const DatasetId& dataset);

  /// Datasets that currently have at least one stored checkpoint
  /// generation, ascending.
  Result<std::vector<DatasetId>> ListCheckpoints() const;

  // --- Checkpoint delta journal -------------------------------------------
  //
  // Each snapshot generation owns a write-ahead log of CRC-framed delta
  // records ("<dataset>.<generation>.wal"). The background checkpoint writer
  // appends groups of records between snapshots; resume reads the newest
  // verifiable snapshot plus its WAL back as one chain. Rotation:
  // PutCheckpoint starts a fresh (empty) WAL for the generation it writes,
  // and pruning an old generation removes its WAL with it.

  /// Appends `records` (each one CheckpointDeltaRecord payload) to the WAL
  /// of `dataset`'s newest snapshot generation, CRC-framed per record, in one
  /// group-committed write. FailedPrecondition when no snapshot generation
  /// exists. Failures are NOT retried — a failed append may have left a
  /// torn tail, so the caller must rotate to a fresh snapshot instead of
  /// appending past the damage.
  Status AppendCheckpointDeltas(const DatasetId& dataset,
                                const std::vector<std::string>& records);

  /// The newest verifiable snapshot for `dataset` plus its WAL records (CRC
  /// framing checked; a torn tail is flagged and skipped). A corrupt newest
  /// snapshot is quarantined together with its WAL and the previous
  /// generation served. NotFound when no valid generation remains.
  Result<CheckpointChain> GetCheckpointChain(const DatasetId& dataset) const;

  void SetRetryPolicy(const RetryPolicy& policy);
  RetryPolicy retry_policy() const;

  /// Snapshot of the cumulative reliability counters.
  StoreStats GetStoreStats() const;

  /// Which of the kLockStripes stripes `key` locks; lets tests pick keys
  /// guaranteed to use distinct stripes.
  static size_t StripeIndexForTesting(const PartitionKey& key);

 protected:
  /// For stores that own their Env.
  SampleStore(std::unique_ptr<Env> env, std::string directory);

 private:
  static constexpr size_t kLockStripes = 32;

  std::string PathFor(const PartitionKey& key) const;
  std::string CheckpointPathFor(const DatasetId& dataset,
                                uint64_t generation) const;
  std::string WalPathFor(const DatasetId& dataset, uint64_t generation) const;
  std::mutex& StripeFor(const PartitionKey& key) const;

  /// Runs `op` under the retry policy: an IOError is retried with backoff
  /// until the policy's attempts run out; any other status is final.
  template <typename Op>
  Status Retrying(const Op& op) const;
  /// Renames `path` aside (best effort) after a corruption diagnosis.
  void Quarantine(const std::string& path) const;
  /// Checkpoint generations stored for `dataset`, ascending. Caller holds
  /// ckpt_mu_ (or is a lock-free scan like ListCheckpoints).
  std::vector<uint64_t> CheckpointGenerations(const DatasetId& dataset) const;
  /// The newest checkpoint generation of `key` whose envelope verifies, and
  /// its payload; newer corrupt generations are quarantined with their
  /// WALs on the way. Caller holds ckpt_mu_.
  Result<std::pair<uint64_t, std::string>> NewestValidCheckpointLocked(
      const DatasetId& key) const;

  std::unique_ptr<Env> owned_env_;
  Env* env_;
  std::string directory_;

  mutable std::mutex config_mu_;
  RetryPolicy retry_policy_;

  mutable std::array<std::mutex, kLockStripes> stripes_;
  // Serializes checkpoint generation bookkeeping (allocate/prune/fallback).
  mutable std::mutex ckpt_mu_;
  // Newest known generation per checkpoint key, so a WAL append costs one
  // file append instead of a directory scan. Maintained under ckpt_mu_ by
  // every generation mutation; an absent entry falls back to a scan, and
  // any failure path invalidates (erases) rather than guesses.
  mutable std::map<DatasetId, uint64_t> newest_generation_;

  mutable std::atomic<uint64_t> stats_retries_attempted_{0};
  mutable std::atomic<uint64_t> stats_retries_exhausted_{0};
  mutable std::atomic<uint64_t> stats_quarantines_{0};
  mutable std::atomic<uint64_t> stats_recovered_temps_{0};
  mutable std::atomic<uint64_t> stats_checkpoints_written_{0};
  mutable std::atomic<uint64_t> stats_checkpoints_restored_{0};
  mutable std::atomic<uint64_t> stats_wal_appends_{0};
  mutable std::atomic<uint64_t> stats_wal_records_appended_{0};
  mutable std::atomic<uint64_t> stats_wal_tails_truncated_{0};
};

/// The store over the real filesystem: one file per sample under
/// `directory` (created if missing).
class FileSampleStore : public SampleStore {
 public:
  static Result<std::unique_ptr<FileSampleStore>> Open(
      const std::string& directory);

 private:
  explicit FileSampleStore(std::string directory);
};

/// The store over a private MemEnv: the same files, held in memory.
class InMemorySampleStore : public SampleStore {
 public:
  InMemorySampleStore();
};

/// Collision-free quarantine destination for `path` in `env`:
/// "<path>.quarantine" when unclaimed, otherwise "<path>.quarantine.<n>"
/// for the smallest free n — a repeated recovery pass never overwrites
/// previously preserved evidence. Exposed for tests.
std::string QuarantineDestination(const std::string& path,
                                  Env* env = Env::Default());

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_SAMPLE_STORE_H_
