#include "src/warehouse/checkpoint_writer.h"

#include <chrono>
#include <utility>

#include "src/util/serialization.h"
#include "src/warehouse/stream_ingestor.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {

CheckpointWriter::CheckpointWriter(Warehouse* warehouse, DatasetId dataset,
                                   bool have_generation,
                                   const CheckpointPolicy& policy)
    : warehouse_(warehouse),
      dataset_(std::move(dataset)),
      group_commit_micros_(policy.group_commit_micros),
      snapshot_every_wal_bytes_(policy.snapshot_every_wal_bytes),
      snapshot_every_deltas_(policy.snapshot_every_deltas),
      ring_(kRingCapacity),
      have_generation_(have_generation) {
  thread_ = std::thread([this] { WriterMain(); });
}

CheckpointWriter::~CheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool CheckpointWriter::OfferDelta(const CheckpointDeltaRecord& record) {
  Slot slot;
  slot.record = record;
  // No signal: deltas ride the periodic group-commit wake. Signaling every
  // push would wake the writer per chunk and defeat batching.
  return ring_.TryPush(slot);
}

bool CheckpointWriter::OfferSnapshot(std::string payload) {
  Slot slot;
  slot.is_snapshot = true;
  slot.record.checkpoint_payload = std::move(payload);
  if (!ring_.TryPush(slot)) return false;
  Signal();
  return true;
}

void CheckpointWriter::BlockingPush(Slot slot) {
  while (!ring_.TryPush(slot)) {
    // Ring full: the writer has queued work — wake it and let it drain.
    Signal();
    std::this_thread::yield();
  }
  Signal();
}

Status CheckpointWriter::PushWithAck(Slot slot) {
  const std::shared_ptr<Ack> ack = std::make_shared<Ack>();
  slot.ack = ack;
  BlockingPush(std::move(slot));
  std::unique_lock<std::mutex> lock(ack->mu);
  ack->cv.wait(lock, [&] { return ack->done; });
  return ack->status;
}

void CheckpointWriter::PushClose(std::string payload) {
  Slot slot;
  slot.record.kind = CheckpointDeltaKind::kClosePending;
  slot.record.checkpoint_payload = std::move(payload);
  BlockingPush(std::move(slot));
}

Status CheckpointWriter::WriteDurableSnapshot(std::string payload) {
  Slot slot;
  slot.is_snapshot = true;
  slot.record.checkpoint_payload = std::move(payload);
  return PushWithAck(std::move(slot));
}

Status CheckpointWriter::WriteDurableClose(std::string payload) {
  Slot slot;
  slot.record.kind = CheckpointDeltaKind::kClosePending;
  slot.record.checkpoint_payload = std::move(payload);
  return PushWithAck(std::move(slot));
}

bool CheckpointWriter::TakeWantsSnapshot() {
  return want_snapshot_.exchange(false, std::memory_order_relaxed);
}

void CheckpointWriter::Signal() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    work_signal_ = true;
  }
  wake_cv_.notify_one();
}

void CheckpointWriter::CompleteAck(const std::shared_ptr<Ack>& ack,
                                   const Status& status) {
  if (ack == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(ack->mu);
    ack->status = status;
    ack->done = true;
  }
  ack->cv.notify_all();
}

void CheckpointWriter::WriterMain() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  for (;;) {
    wake_cv_.wait_for(lock, std::chrono::microseconds(group_commit_micros_),
                      [&] { return work_signal_ || stop_; });
    work_signal_ = false;
    const bool stopping = stop_;
    lock.unlock();
    Drain();
    // The final drain after observing stop_ completes every queued ack, so
    // no producer blocked in PushWithAck is abandoned.
    if (stopping) return;
    lock.lock();
  }
}

void CheckpointWriter::Drain() {
  std::vector<std::string> batch;  // serialized WAL record payloads
  std::vector<std::shared_ptr<Ack>> batch_acks;
  bool pending_progress = false;
  CheckpointDeltaRecord progress;

  // Progress deltas are cumulative, so an adjacent run collapses to its
  // last record at flush time.
  auto flush_progress = [&] {
    if (!pending_progress) return;
    pending_progress = false;
    if (wal_broken_ || !have_generation_) {
      // Liveness records only — dropping them loses no resume point, but
      // the chain should re-anchor soon.
      want_snapshot_.store(true, std::memory_order_relaxed);
      return;
    }
    batch.push_back(progress.Serialize());
  };

  auto flush_batch = [&] {
    flush_progress();
    Status status;
    if (!batch.empty()) {
      status = warehouse_->AppendIngestCheckpointDeltas(dataset_, batch);
      if (status.ok()) {
        for (const std::string& record : batch) {
          wal_bytes_since_snapshot_ += kFrameHeaderBytes + record.size();
        }
        wal_records_since_snapshot_ += batch.size();
      } else {
        // The append may have torn the WAL tail; never append past damage.
        wal_broken_ = true;
        want_snapshot_.store(true, std::memory_order_relaxed);
      }
      batch.clear();
    }
    for (const auto& ack : batch_acks) CompleteAck(ack, status);
    batch_acks.clear();
  };

  auto write_snapshot = [&](const std::string& payload,
                            const std::shared_ptr<Ack>& ack) {
    // Records queued ahead of the snapshot belong to the OLD generation's
    // WAL; land them before rotating.
    flush_batch();
    const Status status = warehouse_->PutIngestCheckpoint(dataset_, payload);
    if (status.ok()) {
      have_generation_ = true;
      wal_broken_ = false;
      wal_bytes_since_snapshot_ = 0;
      wal_records_since_snapshot_ = 0;
    } else {
      // A torn put can leave a damaged newest generation on disk; deltas
      // appended behind it would vanish from a fallback resume.
      wal_broken_ = true;
      want_snapshot_.store(true, std::memory_order_relaxed);
    }
    CompleteAck(ack, status);
  };

  Slot slot;
  while (ring_.TryPop(&slot)) {
    if (slot.is_snapshot) {
      write_snapshot(slot.record.checkpoint_payload, slot.ack);
    } else if (slot.record.kind == CheckpointDeltaKind::kClosePending) {
      if (wal_broken_ || !have_generation_) {
        // The close record embeds a complete checkpoint — promote it to a
        // fresh snapshot generation, healing the broken chain.
        write_snapshot(slot.record.checkpoint_payload, slot.ack);
      } else {
        flush_progress();
        batch.push_back(slot.record.Serialize());
        if (slot.ack != nullptr) {
          // A durability barrier: commit the group now so the caller's
          // wait reflects this record actually reaching the WAL.
          batch_acks.push_back(slot.ack);
          flush_batch();
        }
      }
    } else {
      progress = std::move(slot.record);
      pending_progress = true;
    }
  }
  flush_batch();

  if (have_generation_ && !wal_broken_ &&
      (wal_bytes_since_snapshot_ >= snapshot_every_wal_bytes_ ||
       wal_records_since_snapshot_ >= snapshot_every_deltas_)) {
    want_snapshot_.store(true, std::memory_order_relaxed);
  }
}

}  // namespace sampwh
