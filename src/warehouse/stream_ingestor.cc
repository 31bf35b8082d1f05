#include "src/warehouse/stream_ingestor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/util/logging.h"
#include "src/util/serialization.h"
#include "src/warehouse/checkpoint.h"

namespace sampwh {

namespace {

uint64_t NowUnixMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StreamIngestor::StreamIngestor(Warehouse* warehouse, DatasetId dataset,
                               std::unique_ptr<Partitioner> partitioner)
    : StreamIngestor(warehouse, std::move(dataset), std::move(partitioner),
                     warehouse != nullptr ? warehouse->ForkRng() : Pcg64(0)) {}

StreamIngestor::StreamIngestor(Warehouse* warehouse, DatasetId dataset,
                               std::unique_ptr<Partitioner> partitioner,
                               Pcg64 rng)
    : warehouse_(warehouse),
      dataset_(std::move(dataset)),
      partitioner_(std::move(partitioner)),
      rng_(std::move(rng)) {
  SAMPWH_CHECK(warehouse_ != nullptr);
}

void StreamIngestor::StartPartition() {
  // Fork the partition's sampler stream from the ingestor's OWN engine,
  // keyed by the partition ordinal. Both the engine and the ordinal are
  // checkpointed, so a resumed ingestor reproduces the exact RNG stream an
  // uninterrupted run would have used for this and every later partition.
  sampler_.emplace(warehouse_->options().sampler,
                   rng_.Fork(partitions_started_));
  ++partitions_started_;
  progress_ = PartitionProgress{};
}

void StreamIngestor::RefreshSampleSize() {
  if (sampler_.has_value()) progress_.sample_size = sampler_->sample_size();
}

Status StreamIngestor::CloseCurrentPartition() {
  if (!sampler_.has_value() || progress_.elements == 0) return Status::OK();
  RefreshSampleSize();
  pending_ = PendingClose{sampler_->Finalize(), progress_.first_timestamp,
                          progress_.last_timestamp};
  sampler_.reset();
  progress_ = PartitionProgress{};
  return CompletePendingClose();
}

Status StreamIngestor::CompletePendingClose() {
  if (!pending_.has_value()) return Status::OK();
  // Under its close key the roll-in is idempotent: after a crash anywhere
  // in this close, the replay from the previous resume point lands on the
  // id this attempt takes. A failure leaves pending_ set; the next append
  // (or an explicit Checkpoint()) retries the roll-in.
  SAMPWH_ASSIGN_OR_RETURN(
      PartitionId id,
      warehouse_->RollIn(dataset_, pending_->sample, pending_->min_timestamp,
                         pending_->max_timestamp, next_close_key_));
  rolled_in_.push_back(id);
  pending_.reset();
  if (next_close_key_ != 0) ++next_close_key_;
  // The close's one record. Best effort: while it is missing, a resume
  // replays this close onto the partition just rolled in.
  if (checkpoints_enabled_) (void)WriteResumePoint();
  return Status::OK();
}

std::string StreamIngestor::BuildCheckpointPayload() const {
  IngestCheckpoint ckpt;
  ckpt.next_sequence = next_sequence_;
  ckpt.partitions_started = partitions_started_;
  ckpt.created_unix_micros = NowUnixMicros();
  ckpt.rng = rng_.SaveState();
  ckpt.rolled_in = rolled_in_;
  ckpt.progress = progress_;
  if (sampler_.has_value()) ckpt.sampler_state = sampler_->SaveState();
  ckpt.next_close_key = next_close_key_;
  return ckpt.Serialize();
}

Status StreamIngestor::WriteSnapshot() {
  if (next_close_key_ == 0) {
    // The stream's first record: its keys start one past the largest close
    // key the dataset holds.
    SAMPWH_ASSIGN_OR_RETURN(std::vector<PartitionInfo> parts,
                            warehouse_->ListPartitions(dataset_));
    next_close_key_ = 1;
    for (const PartitionInfo& p : parts) {
      next_close_key_ = std::max(next_close_key_, p.close_key + 1);
    }
  }
  const Status status =
      warehouse_->PutIngestCheckpoint(dataset_, BuildCheckpointPayload());
  // A failed put may leave a torn newest generation; nothing is appended
  // behind it until a snapshot succeeds.
  wal_broken_ = !status.ok();
  if (status.ok()) {
    have_generation_ = true;
    wal_bytes_since_snapshot_ = 0;
  }
  return status;
}

Status StreamIngestor::WriteResumePoint() {
  if (!have_generation_ || wal_broken_ ||
      wal_bytes_since_snapshot_ >= policy_.snapshot_every_wal_bytes) {
    // The record is state-complete, so it can stand as a snapshot
    // generation of its own; that also compacts or heals the chain.
    return WriteSnapshot();
  }
  CheckpointDeltaRecord record;
  record.checkpoint_payload = BuildCheckpointPayload();
  std::string bytes = record.Serialize();
  const uint64_t framed = kFrameHeaderBytes + bytes.size();
  const Status status =
      warehouse_->AppendIngestCheckpointDeltas(dataset_, {std::move(bytes)});
  if (status.ok()) {
    wal_bytes_since_snapshot_ += framed;
  } else {
    wal_broken_ = true;  // the append may have torn the WAL tail
  }
  return status;
}

void StreamIngestor::EnableCheckpoints(const CheckpointPolicy& policy) {
  checkpoints_enabled_ = true;
  policy_ = policy;
}

Status StreamIngestor::Checkpoint() {
  // Finish an interrupted close first: a record never holds a finalized
  // sample, only the state after its roll-in.
  SAMPWH_RETURN_IF_ERROR(CompletePendingClose());
  return WriteSnapshot();
}

Status StreamIngestor::Append(Value v, uint64_t timestamp) {
  return AppendAt(next_sequence_, v, timestamp);
}

Status StreamIngestor::AppendBatch(std::span<const Value> values,
                                   uint64_t timestamp) {
  return AppendBatchAt(next_sequence_, values, timestamp);
}

Status StreamIngestor::AppendAt(uint64_t sequence, Value v,
                                uint64_t timestamp) {
  return AppendBatchAt(sequence, std::span<const Value>(&v, 1), timestamp);
}

Status StreamIngestor::AppendBatchAt(uint64_t sequence,
                                     std::span<const Value> values,
                                     uint64_t timestamp) {
  SAMPWH_RETURN_IF_ERROR(CompletePendingClose());
  // A checkpointed stream's first record comes before anything of it can
  // roll in, so a crash inside its first close replays onto its keys.
  if (checkpoints_enabled_ && !have_generation_) {
    SAMPWH_RETURN_IF_ERROR(WriteSnapshot());
  }
  if (sequence > next_sequence_) {
    return Status::FailedPrecondition(
        "sequence gap: batch starts at " + std::to_string(sequence) +
        " but the watermark is " + std::to_string(next_sequence_));
  }
  if (sequence + values.size() <= next_sequence_) {
    // Entirely below the watermark: an at-least-once redelivery of work
    // already applied. Acknowledge so the source can advance.
    return Status::OK();
  }
  // Apply only the unapplied suffix of a straddling batch.
  values = values.subspan(next_sequence_ - sequence);

  size_t i = 0;
  while (i < values.size()) {
    if (partitioner_ != nullptr && sampler_.has_value() &&
        partitioner_->ShouldCloseBefore(progress_, timestamp)) {
      SAMPWH_RETURN_IF_ERROR(CloseCurrentPartition());
    }
    if (!sampler_.has_value()) StartPartition();

    uint64_t chunk = values.size() - i;
    if (partitioner_ != nullptr) {
      // MaxAppendable can be 0 when a close-before policy has headroom 0
      // but declined to close (e.g. an empty open partition); make forward
      // progress by appending at least one element.
      chunk = std::min(
          chunk, std::max<uint64_t>(partitioner_->MaxAppendable(progress_),
                                    uint64_t{1}));
    }
    if (progress_.elements == 0) progress_.first_timestamp = timestamp;
    progress_.last_timestamp = timestamp;
    sampler_->AddBatch(values.subspan(i, chunk));
    progress_.elements += chunk;
    next_sequence_ += chunk;
    i += chunk;

    if (partitioner_ != nullptr) {
      RefreshSampleSize();
      if (partitioner_->ShouldCloseAfter(progress_)) {
        SAMPWH_RETURN_IF_ERROR(CloseCurrentPartition());
      }
    }
  }
  return Status::OK();
}

Status StreamIngestor::Flush() {
  SAMPWH_RETURN_IF_ERROR(CompletePendingClose());
  return CloseCurrentPartition();
}

Result<std::unique_ptr<StreamIngestor>> StreamIngestor::Resume(
    Warehouse* warehouse, DatasetId dataset,
    std::unique_ptr<Partitioner> partitioner, const CheckpointPolicy& policy) {
  if (warehouse == nullptr) {
    return Status::InvalidArgument("null warehouse");
  }
  SAMPWH_ASSIGN_OR_RETURN(CheckpointChain chain,
                          warehouse->GetIngestCheckpointChain(dataset));
  SAMPWH_ASSIGN_OR_RETURN(IngestCheckpoint ckpt,
                          ResolveCheckpointChain(chain));

  auto ingestor = std::unique_ptr<StreamIngestor>(
      new StreamIngestor(warehouse, std::move(dataset),
                         std::move(partitioner), Pcg64::FromState(ckpt.rng)));
  ingestor->next_sequence_ = ckpt.next_sequence;
  ingestor->partitions_started_ = ckpt.partitions_started;
  ingestor->rolled_in_ = std::move(ckpt.rolled_in);
  ingestor->progress_ = ckpt.progress;
  if (!ckpt.sampler_state.empty()) {
    SAMPWH_ASSIGN_OR_RETURN(AnySampler sampler,
                            AnySampler::LoadState(ckpt.sampler_state));
    ingestor->sampler_.emplace(std::move(sampler));
  }
  // The chain we just resumed from has a verified snapshot generation, so
  // records appended by the new incarnation extend a valid chain — unless
  // its WAL ends in a torn record, behind which an append would be lost.
  ingestor->have_generation_ = true;
  ingestor->wal_broken_ = chain.torn_tail;
  ingestor->EnableCheckpoints(policy);
  ingestor->next_close_key_ = ckpt.next_close_key;
  return ingestor;
}

}  // namespace sampwh
