// Streaming ingestion for one data set (or one split of its stream): runs
// a sampler over arriving elements and, whenever the partitioning policy
// closes a partition, finalizes the sample and rolls it into the warehouse
// — the left half of Fig. 1 in the paper.
//
// Crash-safe resumable ingestion: with checkpoints enabled the ingestor
// periodically persists an IngestCheckpoint (sampler state, partitioner
// progress, its private RNG, and the replay watermark) through the
// warehouse's sample store. After a crash, Resume() reloads the newest
// valid checkpoint and the sequence-addressed Append*At entry points give
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
#include "src/warehouse/checkpoint_writer.h"
#include "src/warehouse/partitioner.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {

/// When the ingestor writes checkpoints on its own. Both dimensions are
/// optional (0 disables); a checkpoint is also always written around each
/// partition close (the two-phase close protocol), and Checkpoint() forces
/// one at any time.
///
/// Checkpoints are ASYNCHRONOUS: the ingest thread snapshots its state into
/// a lock-free ring and a background CheckpointWriter performs the store
/// IO — cadence checkpoints become delta-journal appends that are
/// group-committed off the hot path. Only two writes stay synchronous with
/// ingest: checkpoint A of a partition close (the exactly-once barrier) and
/// an explicit Checkpoint() call.
struct CheckpointPolicy {
  /// Checkpoint after this many applied elements (0: off).
  uint64_t every_n_elements = 0;
  /// Checkpoint when the event-time clock advanced this many ticks since
  /// the last checkpoint (0: off).
  uint64_t every_t_ticks = 0;
  /// How long a queued delta may wait before the writer group-commits it.
  uint64_t group_commit_micros = 2000;
  /// Rotate a fresh full snapshot once the delta journal since the last one
  /// exceeds either bound.
  uint64_t snapshot_every_wal_bytes = 1ull << 20;
  uint64_t snapshot_every_deltas = 1024;
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

  /// Turns on the checkpoint protocol (cadence per `policy`; a zero policy
  /// still checkpoints around partition closes and on Checkpoint()) through
  /// a CheckpointWriter of its own.
  void EnableCheckpoints(const CheckpointPolicy& policy);

  /// Forces a durable checkpoint of the current state now (a barrier
  /// through the background writer once checkpoints are enabled).
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
  /// Checkpoint() before checkpoints are enabled: a full snapshot straight
  /// to the warehouse's store; resets the cadence counters on success.
  Status WriteCheckpoint();
  /// Queues checkpoint B of a close (or its resume-adoption equivalent):
  /// best-effort — a loss is reconciled by the adoption rule.
  void WriteCloseComplete();
  /// Cadence check after applied work; checkpoint failures here are
  /// swallowed (the stream stays correct, only resumption granularity
  /// degrades — the next cadence point retries). This only snapshots state
  /// into the writer's ring; a full ring skips the cadence point
  /// (backpressure) and retries on the next chunk.
  void MaybeCheckpoint();
  void ResetCadence();
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

  CheckpointPolicy policy_;
  uint64_t elements_since_checkpoint_ = 0;
  uint64_t last_checkpoint_tick_ = 0;

  /// The background writer; non-null is what "checkpoints enabled" means.
  std::unique_ptr<CheckpointWriter> writer_;
  /// A snapshot generation exists (or is queued) for dataset_, so
  /// delta records have a chain to extend. Until anchored, every cadence
  /// point sends a full snapshot.
  bool anchored_ = false;
  /// The writer asked for (or a full ring deferred) a compaction snapshot.
  bool snapshot_requested_ = false;
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_STREAM_INGESTOR_H_
