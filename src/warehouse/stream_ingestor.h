// Streaming ingestion for one data set (or one split of its stream): runs
// a sampler over arriving elements and, whenever the partitioning policy
// closes a partition, finalizes the sample and rolls it into the warehouse
// — the left half of Fig. 1 in the paper.
//
// Crash-safe resumable ingestion: with checkpoints enabled the ingestor
// persists an IngestCheckpoint (sampler state, partitioner progress, its
// private RNG, the replay watermark and its next close key) through the
// warehouse's sample store at every resume point: after each partition
// close's roll-in and on Checkpoint(). A close rolls its partition in
// tagged with its close key, so the roll-in is idempotent: a crash
// anywhere in a close replays the close from the previous resume point
// onto the id its first attempt took. After a crash, Resume() reloads the
// newest valid checkpoint and the sequence-addressed Append*At entry
// points give exactly-once semantics over an at-least-once delivery
// stream: a source that replays from (at or before) next_sequence() has
// every duplicate batch acknowledged and skipped, every new element
// applied exactly once, and the resulting rolled-in samples are
// bit-identical to an uninterrupted run.

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
/// synchronously by the appending thread, at a resume point: one after
/// each partition close's roll-in, and on Checkpoint(). A record is
/// appended to the newest snapshot generation's WAL while that WAL is
/// healthy and shorter than the bound below; otherwise it is written as a
/// fresh snapshot generation.
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

  /// Turns on the checkpoint protocol: one record after every partition
  /// close, placed per `policy`. A stream with no record yet writes its
  /// first one, a snapshot generation, at its next append, before anything
  /// of it can roll in.
  void EnableCheckpoints(const CheckpointPolicy& policy);

  /// Writes the current state as a new snapshot generation now, whether or
  /// not checkpoints are enabled.
  Status Checkpoint();

  /// Reopens ingestion from the newest state-complete record of `dataset`'s
  /// checkpoint chain — the newest verifiable snapshot generation with its
  /// delta journal replayed onto it (NotFound when none exists;
  /// FailedPrecondition naming the file for a record of an older layout).
  /// A close interrupted by the crash is replayed from there like any other
  /// partition: its roll-in finds the partition its first attempt rolled
  /// in by its close key. The returned ingestor has checkpoints enabled
  /// with `policy`; feed it the source stream from next_sequence() (or any
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
  /// A finalized partition whose roll-in has not succeeded yet; a failed
  /// roll-in is retried from it on the next append.
  struct PendingClose {
    PartitionSample sample;
    uint64_t min_timestamp = 0;
    uint64_t max_timestamp = 0;
  };

  /// Resume's constructor: the private RNG is restored from the
  /// checkpoint instead of forked from the warehouse engine.
  StreamIngestor(Warehouse* warehouse, DatasetId dataset,
                 std::unique_ptr<Partitioner> partitioner, Pcg64 rng);

  Status CloseCurrentPartition();
  /// Drives the pending close to completion: RollIn under the close key,
  /// then the close's resume-point record. A failed roll-in leaves pending_
  /// set so the next append retries.
  Status CompletePendingClose();
  void StartPartition();
  // progress_.sample_size is refreshed lazily — only where a partitioning
  // policy can actually read it (before ShouldCloseAfter and when closing)
  // — so the per-element hot path pays no sampler query.
  void RefreshSampleSize();
  /// Serializes the full ingestor state (the IngestCheckpoint payload).
  std::string BuildCheckpointPayload() const;
  /// Writes the current state as a new snapshot generation. The stream's
  /// first record fixes its close keys, so a new stream never takes an
  /// older stream's partition for its own.
  Status WriteSnapshot();
  /// Writes the current state as a kClosePending record: to the WAL when
  /// the placement rule allows it, as a new snapshot generation otherwise.
  Status WriteResumePoint();

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
  /// The close key of the next close; 0 until the stream has a record, and
  /// its closes roll in untagged until then.
  uint64_t next_close_key_ = 0;

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
