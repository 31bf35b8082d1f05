// Streaming ingestion for one data set (or one split of its stream): runs
// a sampler over arriving elements and, whenever the partitioning policy
// closes a partition, finalizes the sample and rolls it into the warehouse
// — the left half of Fig. 1 in the paper.
//
// Crash-safe resumable ingestion: with checkpoints enabled the ingestor
// persists an IngestCheckpoint (sampler state, partitioner progress, its
// private RNG, and the replay watermark) through the warehouse's sample
// store at every resume point: around each partition close and on
// Checkpoint(). After a crash, Resume() reloads the newest valid
// checkpoint and the sequence-addressed Append*At entry points give
// exactly-once semantics over an at-least-once delivery stream: a source
// that replays from (at or before) next_sequence() has every duplicate
// batch acknowledged and skipped, every new element applied exactly once,
// and the resulting rolled-in samples are bit-identical to an
// uninterrupted run.

#ifndef SAMPWH_WAREHOUSE_STREAM_INGESTOR_H_
#define SAMPWH_WAREHOUSE_STREAM_INGESTOR_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/core/any_sampler.h"
#include "src/warehouse/partitioner.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {

/// Where the ingestor's checkpoint records go. Every record is written
/// synchronously by the appending thread, at a resume point: checkpoint A
/// and B of each partition close, the resume-adoption record, and
/// Checkpoint(). A record is appended to the newest snapshot generation's
/// WAL while that WAL is healthy and shorter than the bound below;
/// otherwise it is written as a fresh snapshot generation.
struct CheckpointPolicy {
  /// Bytes of WAL records after which the next record starts a new
  /// snapshot generation instead (compaction).
  uint64_t snapshot_every_wal_bytes = 1ull << 20;
};

class StreamIngestor {
 public:
  /// `warehouse` must outlive the ingestor; the dataset must exist.
  /// `partitioner` decides partition boundaries; pass nullptr for a single
  /// never-closing partition (explicit Flush() only).
  StreamIngestor(Warehouse* warehouse, DatasetId dataset,
                 std::unique_ptr<Partitioner> partitioner);

  /// Feeds one element with an optional event timestamp (virtual ticks).
  /// Timestamps must be non-decreasing within one ingestor.
  Status Append(Value v, uint64_t timestamp = 0);

  /// Feeds a batch of elements sharing one event timestamp. Partitioner
  /// checks and progress bookkeeping are amortized per chunk (the chunk
  /// size is negotiated with the partitioner via MaxAppendable), and each
  /// chunk flows through the sampler's skip-based AddBatch fast path.
  /// Count/temporal policies produce exactly the partition boundaries an
  /// element-wise Append loop would; ratio-trigger policies close within
  /// one check granule of the element-wise trigger point.
  Status AppendBatch(std::span<const Value> values, uint64_t timestamp = 0);

  /// Sequence-addressed variants for exactly-once replay: `sequence` is
  /// the 0-based position of `v` (or of values[0]) in the source stream.
  /// An element wholly below next_sequence() was already applied and is
  /// acknowledged with OK without touching the sampler; a batch straddling
  /// the watermark has only its unapplied suffix applied; a sequence past
  /// the watermark is a gap in delivery — FailedPrecondition, nothing
  /// applied.
  Status AppendAt(uint64_t sequence, Value v, uint64_t timestamp = 0);
  Status AppendBatchAt(uint64_t sequence, std::span<const Value> values,
                       uint64_t timestamp = 0);

  /// Finalizes and rolls in the open partition, if it holds any elements.
  Status Flush();

  /// Turns on the checkpoint protocol: checkpoint records around every
  /// partition close, placed per `policy`.
  void EnableCheckpoints(const CheckpointPolicy& policy);

  /// Writes the current state as a new snapshot generation now, whether or
  /// not checkpoints are enabled.
  Status Checkpoint();

  /// Reopens ingestion from the newest state-complete record of `dataset`'s
  /// checkpoint chain — the newest verifiable snapshot generation with its
  /// delta journal replayed onto it (NotFound when none exists). Reconciles
  /// a close that was interrupted mid-protocol: a pending partition whose
  /// roll-in provably completed is adopted, one whose roll-in is absent is
  /// rolled in now. The returned ingestor has checkpoints enabled with
  /// `policy`; feed it the source stream from next_sequence() (or any
  /// earlier replay point) via the Append*At entry points.
  static Result<std::unique_ptr<StreamIngestor>> Resume(
      Warehouse* warehouse, DatasetId dataset,
      std::unique_ptr<Partitioner> partitioner,
      const CheckpointPolicy& policy = {});

  /// The replay watermark: sequence number of the next element to apply.
  uint64_t next_sequence() const { return next_sequence_; }

  /// Partition ids this ingestor has rolled in so far, in creation order.
  const std::vector<PartitionId>& rolled_in() const { return rolled_in_; }

  /// Elements in the currently open partition.
  uint64_t open_elements() const { return progress_.elements; }

 private:
  /// A finalized partition between the two checkpoints of the close
  /// protocol: recorded durably (checkpoint A) before RollIn, cleared
  /// durably (checkpoint B) after.
  struct PendingClose {
    PartitionSample sample;
    uint64_t min_timestamp = 0;
    uint64_t max_timestamp = 0;
    /// No partition id >= this bound existed when the close began.
    PartitionId id_lower_bound = 0;
    /// Checkpoint A has been persisted.
    bool checkpointed = false;
  };

  /// Resume's constructor: the private RNG is restored from the
  /// checkpoint instead of forked from the warehouse engine.
  StreamIngestor(Warehouse* warehouse, DatasetId dataset,
                 std::unique_ptr<Partitioner> partitioner, Pcg64 rng);

  Status CloseCurrentPartition();
  /// Drives the pending close to completion: checkpoint A (if not yet
  /// durable), RollIn, checkpoint B. Errors leave pending_ set so the next
  /// append retries.
  Status CompletePendingClose();
  void StartPartition();
  // progress_.sample_size is refreshed lazily — only where a partitioning
  // policy can actually read it (before ShouldCloseAfter and when closing)
  // — so the per-element hot path pays no sampler query.
  void RefreshSampleSize();
  /// Serializes the full ingestor state (the IngestCheckpoint payload).
  std::string BuildCheckpointPayload() const;
  /// Writes the current state as a new snapshot generation.
  Status WriteSnapshot();
  /// Writes the current state as a kClosePending record: to the WAL when
  /// the placement rule allows it, as a new snapshot generation otherwise.
  Status WriteResumePoint();
  /// Smallest partition id that provably did not exist yet (allocator
  /// lower bound for the pending-close adoption rule).
  Result<PartitionId> NextIdLowerBound() const;

  Warehouse* warehouse_;
  DatasetId dataset_;
  std::unique_ptr<Partitioner> partitioner_;

  /// The ingestor's private RNG: per-partition sampler streams fork from
  /// it keyed by partitions_started_, never from the warehouse RNG, so a
  /// restored checkpoint replays the exact same randomness.
  Pcg64 rng_;
  uint64_t partitions_started_ = 0;
  uint64_t next_sequence_ = 0;

  std::optional<AnySampler> sampler_;
  PartitionProgress progress_;
  std::vector<PartitionId> rolled_in_;
  std::optional<PendingClose> pending_;

  /// Set by EnableCheckpoints(): the close protocol writes its records.
  bool checkpoints_enabled_ = false;
  CheckpointPolicy policy_;
  /// A snapshot generation of dataset_ exists, so WAL records have a chain
  /// to extend.
  bool have_generation_ = false;
  /// An append or put failed since the last snapshot. A failed write may
  /// have torn the newest generation or its WAL tail, and a record
  /// appended behind the damage would be hidden from a resume.
  bool wal_broken_ = false;
  /// Framed bytes appended to the newest generation's WAL.
  uint64_t wal_bytes_since_snapshot_ = 0;
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_STREAM_INGESTOR_H_
