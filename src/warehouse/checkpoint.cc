#include "src/warehouse/checkpoint.h"

#include <string>
#include <utility>

#include "src/core/any_sampler.h"
#include "src/util/serialization.h"

namespace sampwh {

namespace {

// Version 1 carried a pending roll-in instead of the next close key.
constexpr uint64_t kCheckpointVersion = 2;
constexpr uint64_t kCheckpointDeltaVersion = 1;

/// Upper bound on one WAL record payload; a parsed length past it is
/// treated as the torn tail rather than attempted as an allocation.
constexpr uint32_t kMaxWalRecordBytes = 256u << 20;

}  // namespace

std::string IngestCheckpoint::Serialize() const {
  BinaryWriter writer;
  writer.PutFixed32(kCheckpointRecordMagic);
  writer.PutVarint64(kCheckpointVersion);
  writer.PutVarint64(next_sequence);
  writer.PutVarint64(partitions_started);
  writer.PutVarint64(created_unix_micros);
  writer.PutFixed64(rng.state_hi);
  writer.PutFixed64(rng.state_lo);
  writer.PutFixed64(rng.inc_hi);
  writer.PutFixed64(rng.inc_lo);
  writer.PutVarint64(rolled_in.size());
  for (const PartitionId id : rolled_in) writer.PutVarint64(id);
  writer.PutVarint64(progress.elements);
  writer.PutVarint64(progress.sample_size);
  writer.PutVarint64(progress.first_timestamp);
  writer.PutVarint64(progress.last_timestamp);
  writer.PutString(sampler_state);
  writer.PutVarint64(next_close_key);
  return std::move(writer).Release();
}

Result<IngestCheckpoint> IngestCheckpoint::Deserialize(
    std::string_view bytes) {
  BinaryReader reader(bytes);
  uint32_t magic;
  SAMPWH_RETURN_IF_ERROR(reader.GetFixed32(&magic));
  if (magic != kCheckpointRecordMagic) {
    return Status::Corruption("not an ingest-checkpoint record");
  }
  uint64_t version;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&version));
  if (version != kCheckpointVersion) {
    return Status::FailedPrecondition(
        "version-" + std::to_string(version) +
        " ingest checkpoint, a layout this build does not read");
  }
  IngestCheckpoint ckpt;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ckpt.next_sequence));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ckpt.partitions_started));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ckpt.created_unix_micros));
  SAMPWH_RETURN_IF_ERROR(reader.GetFixed64(&ckpt.rng.state_hi));
  SAMPWH_RETURN_IF_ERROR(reader.GetFixed64(&ckpt.rng.state_lo));
  SAMPWH_RETURN_IF_ERROR(reader.GetFixed64(&ckpt.rng.inc_hi));
  SAMPWH_RETURN_IF_ERROR(reader.GetFixed64(&ckpt.rng.inc_lo));
  uint64_t rolled_in_count;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&rolled_in_count));
  if (rolled_in_count > reader.remaining()) {
    return Status::Corruption("ingest checkpoint: rolled-in count too large");
  }
  ckpt.rolled_in.reserve(rolled_in_count);
  for (uint64_t i = 0; i < rolled_in_count; ++i) {
    PartitionId id;
    SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&id));
    ckpt.rolled_in.push_back(id);
  }
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ckpt.progress.elements));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ckpt.progress.sample_size));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ckpt.progress.first_timestamp));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ckpt.progress.last_timestamp));
  SAMPWH_RETURN_IF_ERROR(reader.GetString(&ckpt.sampler_state));
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&ckpt.next_close_key));
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after ingest checkpoint");
  }
  // An open partition with elements must carry a sampler state to resume
  // from; the reverse (a sampler state with zero elements) is legal — the
  // sampler was created but nothing arrived since the last close.
  if (ckpt.progress.elements > 0 && ckpt.sampler_state.empty()) {
    return Status::Corruption(
        "ingest checkpoint: open partition without sampler state");
  }
  return ckpt;
}

Status VerifyCheckpointPayload(std::string_view bytes) {
  SAMPWH_ASSIGN_OR_RETURN(IngestCheckpoint ckpt,
                          IngestCheckpoint::Deserialize(bytes));
  if (!ckpt.sampler_state.empty()) {
    SAMPWH_RETURN_IF_ERROR(AnySampler::LoadState(ckpt.sampler_state).status());
  }
  return Status::OK();
}

std::string CheckpointDeltaRecord::Serialize() const {
  BinaryWriter writer;
  writer.PutFixed32(kCheckpointDeltaRecordMagic);
  writer.PutVarint64(kCheckpointDeltaVersion);
  writer.PutVarint64(static_cast<uint64_t>(kind));
  writer.PutString(checkpoint_payload);
  return std::move(writer).Release();
}

Result<CheckpointDeltaRecord> CheckpointDeltaRecord::Deserialize(
    std::string_view bytes) {
  BinaryReader reader(bytes);
  uint32_t magic;
  SAMPWH_RETURN_IF_ERROR(reader.GetFixed32(&magic));
  if (magic != kCheckpointDeltaRecordMagic) {
    return Status::Corruption("not a checkpoint-delta record");
  }
  uint64_t version;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&version));
  if (version != kCheckpointDeltaVersion) {
    return Status::Corruption("unsupported checkpoint-delta version");
  }
  uint64_t kind;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&kind));
  if (kind != static_cast<uint64_t>(CheckpointDeltaKind::kClosePending)) {
    return Status::Corruption("checkpoint delta: unknown kind " +
                              std::to_string(kind));
  }
  CheckpointDeltaRecord record;
  SAMPWH_RETURN_IF_ERROR(reader.GetString(&record.checkpoint_payload));
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after checkpoint delta");
  }
  return record;
}

Status VerifyCheckpointDeltaPayload(std::string_view bytes) {
  SAMPWH_ASSIGN_OR_RETURN(CheckpointDeltaRecord record,
                          CheckpointDeltaRecord::Deserialize(bytes));
  return VerifyCheckpointPayload(record.checkpoint_payload);
}

CheckpointWalParse ParseCheckpointWal(std::string_view wal) {
  return ParseFrameLog(wal, kMaxWalRecordBytes);
}

Result<IngestCheckpoint> ResolveCheckpointChain(const CheckpointChain& chain) {
  SAMPWH_ASSIGN_OR_RETURN(IngestCheckpoint resolved,
                          IngestCheckpoint::Deserialize(chain.snapshot));
  for (const std::string& bytes : chain.deltas) {
    SAMPWH_ASSIGN_OR_RETURN(CheckpointDeltaRecord record,
                            CheckpointDeltaRecord::Deserialize(bytes));
    SAMPWH_ASSIGN_OR_RETURN(
        resolved, IngestCheckpoint::Deserialize(record.checkpoint_payload));
  }
  return resolved;
}

}  // namespace sampwh
