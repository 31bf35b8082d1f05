// Background checkpoint writer: takes checkpoint persistence off the ingest
// hot path of one stream.
//
// An ingest thread never writes a cadence checkpoint itself.
// It snapshots its state into a small Slot and pushes it onto an SPSC
// ring; a dedicated writer thread drains the ring on a group-commit
// cadence and performs the actual store IO:
//
//   * kProgress deltas are CUMULATIVE (each carries the full watermark /
//     RNG / progress view), so an adjacent run coalesces to its last record
//     — the writer appends a handful of records per wake no matter how hot
//     the cadence is. They are group-committed to the newest generation's
//     WAL with no fsync on the ingest thread.
//   * Snapshots (full IngestCheckpoint payloads) rotate a fresh snapshot
//     generation via PutCheckpoint and reset the delta chain.
//   * kClosePending records (checkpoint A of the two-phase close) are
//     state-complete; they ride the WAL when it is healthy and are promoted
//     to a full snapshot when it is not.
//
// Backpressure is the ring itself: a full ring fails the offer, the
// ingestor's cadence counters keep accumulating, and the offer is retried
// on the next chunk — checkpoints get coarser under load instead of
// stalling ingest.
//
// Failure containment: after ANY append or put failure the WAL is
// considered broken — a torn put can leave a damaged newest generation, and
// appending behind it would hide close records from a fallback resume
// (duplicate roll-in). While broken, progress deltas are dropped (they are
// observability only), close records are promoted to full snapshots, and
// the writer requests a fresh anchor snapshot; a successful put heals it.
//
// Durability barriers: close A must be durable BEFORE the roll-in it
// describes (exactly-once replay depends on it), so WriteDurableClose /
// WriteDurableSnapshot block the caller on a per-record ack carrying the
// actual store Status. Everything else is fire-and-forget.

#ifndef SAMPWH_WAREHOUSE_CHECKPOINT_WRITER_H_
#define SAMPWH_WAREHOUSE_CHECKPOINT_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/util/spsc_ring.h"
#include "src/util/status.h"
#include "src/warehouse/checkpoint.h"
#include "src/warehouse/ids.h"

namespace sampwh {

class Warehouse;
struct CheckpointPolicy;

class CheckpointWriter {
 public:
  /// Starts the writer thread for `dataset`'s checkpoint chain, on the
  /// group-commit and compaction cadence of `policy`. `have_generation`
  /// is true when a snapshot generation already exists (resume).
  CheckpointWriter(Warehouse* warehouse, DatasetId dataset,
                   bool have_generation, const CheckpointPolicy& policy);
  /// Drains everything queued (completing every ack), then joins.
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  // Producer side. SPSC: exactly one producer thread at a time (the thread
  // driving the stream's ingestor); the writer thread is the only consumer.

  /// Queues a progress delta. False when the ring is full — the caller
  /// keeps its cadence counters and retries later.
  bool OfferDelta(const CheckpointDeltaRecord& record);

  /// Queues a full snapshot (cadence anchor / compaction). False when
  /// the ring is full.
  bool OfferSnapshot(std::string payload);

  /// Queues a close record without a durability wait (close B / the
  /// resume-adoption record: a loss is reconciled by the adoption rule,
  /// so it must not be dropped but need not be awaited).
  void PushClose(std::string payload);

  /// Durable full snapshot: blocks until the writer persisted it and
  /// returns the store's Status (forced Checkpoint()).
  Status WriteDurableSnapshot(std::string payload);

  /// Durable close record (checkpoint A): blocks until persisted —
  /// to the WAL when healthy, as a promoted snapshot otherwise.
  Status WriteDurableClose(std::string payload);

  /// True once per compaction request: the writer wants the producer to
  /// send a fresh full snapshot at its next cadence point.
  bool TakeWantsSnapshot();

 private:
  /// Ring slots. A full ring coarsens the stream's checkpoint cadence
  /// (offers fail and are retried next chunk).
  static constexpr size_t kRingCapacity = 64;

  struct Ack {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
  };

  struct Slot {
    /// Full snapshot payload in record.checkpoint_payload.
    bool is_snapshot = false;
    CheckpointDeltaRecord record;
    std::shared_ptr<Ack> ack;
  };

  void BlockingPush(Slot slot);
  Status PushWithAck(Slot slot);
  void Signal();
  void WriterMain();
  void Drain();
  static void CompleteAck(const std::shared_ptr<Ack>& ack,
                          const Status& status);

  Warehouse* const warehouse_;
  const DatasetId dataset_;
  const uint64_t group_commit_micros_;
  const uint64_t snapshot_every_wal_bytes_;
  const uint64_t snapshot_every_deltas_;
  SpscRing<Slot> ring_;
  std::atomic<bool> want_snapshot_{false};

  // Writer-thread-only state.
  bool have_generation_;
  bool wal_broken_ = false;
  uint64_t wal_bytes_since_snapshot_ = 0;
  uint64_t wal_records_since_snapshot_ = 0;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool work_signal_ = false;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_CHECKPOINT_WRITER_H_
