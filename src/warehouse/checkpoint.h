// Ingest checkpoints: the durable record a StreamIngestor persists so that
// ingestion can be killed at any instant and resumed with exactly-once
// semantics over an at-least-once delivery stream.
//
// A checkpoint captures everything the ingestor needs to continue
// bit-identically:
//
//   * the replay watermark `next_sequence` — every element with a sequence
//     number below it has been applied; re-delivered batches at or below
//     the watermark are acknowledged and skipped on resume,
//   * the ingestor's own RNG engine and partition counter (per-partition
//     sampler streams are forked from these, never from the warehouse RNG,
//     so they are replayable),
//   * the open partition's progress and the mid-stream sampler state
//     (an AnySampler::SaveState record), and
//   * the key of the stream's next close. A close rolls its partition in
//     tagged with that key, and the roll-in of a key the dataset already
//     holds returns the partition that holds it (Warehouse::RollIn). So a
//     crash anywhere in a close replays the close from the previous record
//     onto the id its first attempt took, and one record after each
//     roll-in is the whole close protocol.
//
// The serialized record is stored as one CRC frame like every other stored
// file (leading fixed32 kCheckpointRecordMagic identifies it); SampleStore
// keeps the newest two generations per dataset so a torn checkpoint write
// falls back to the previous one. A record of another version (version 1
// was the layout before close keys) is refused (FailedPrecondition), never
// resumed from.

#ifndef SAMPWH_WAREHOUSE_CHECKPOINT_H_
#define SAMPWH_WAREHOUSE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/util/status.h"
#include "src/warehouse/ids.h"
#include "src/warehouse/partitioner.h"

namespace sampwh {

struct IngestCheckpoint {
  /// Replay watermark: the sequence number of the next element to apply.
  uint64_t next_sequence = 0;
  /// How many partitions this ingestor has started (the fork salt for the
  /// next partition's sampler stream).
  uint64_t partitions_started = 0;
  /// Wall-clock creation time, for observability only (tooling prints the
  /// checkpoint age; no correctness decision reads it).
  uint64_t created_unix_micros = 0;
  /// The ingestor's private RNG engine at checkpoint time.
  Pcg64::State rng;
  /// Partition ids rolled in by this ingestor, in creation order.
  std::vector<PartitionId> rolled_in;
  /// Progress of the open partition.
  PartitionProgress progress;
  /// Mid-stream AnySampler::SaveState record for the open partition's
  /// sampler; empty when no partition is open.
  std::string sampler_state;
  /// The close key of the stream's next close; 0 in a record of a stream
  /// that has no keys yet.
  uint64_t next_close_key = 0;

  /// Encodes the record (leading kCheckpointRecordMagic, then version).
  std::string Serialize() const;

  /// Decodes and structurally validates a record produced by Serialize().
  /// Corruption on any malformed field, FailedPrecondition on a record of
  /// another version; the embedded sampler state is NOT decoded here
  /// (VerifyCheckpointPayload does the deep check).
  static Result<IngestCheckpoint> Deserialize(std::string_view bytes);
};

/// Full structural verification of a checkpoint payload: Deserialize() plus
/// decoding the embedded sampler-state record.
/// Recovery scans use this so a checkpoint is either provably loadable or
/// quarantined — invalid bytes are never half-decoded at resume time.
Status VerifyCheckpointPayload(std::string_view bytes);

// --- Delta-journal records ---------------------------------------------------
//
// Between full snapshots a StreamIngestor appends DELTA records to a
// per-key write-ahead log owned by the newest snapshot generation
// ("<key>.<generation>.wal"). There is one kind, kClosePending: a complete
// IngestCheckpoint embedded as a delta — the resume point a close writes
// after its roll-in. State-complete: it carries everything a resume needs,
// without rewriting a snapshot generation per close.
//
// Resume resolves a chain to its NEWEST record — the snapshot, overridden
// by each delta in append order — and replays the source from that
// record's watermark; exactly-once Append*At replay makes the recovered
// samples bit-identical to an uninterrupted run.

enum class CheckpointDeltaKind : uint8_t {
  kClosePending = 2,
};

struct CheckpointDeltaRecord {
  CheckpointDeltaKind kind = CheckpointDeltaKind::kClosePending;

  /// A full serialized IngestCheckpoint.
  std::string checkpoint_payload;

  /// Encodes the record (leading kCheckpointDeltaRecordMagic, version,
  /// kind). The result is one WAL record payload — frame it with
  /// AppendFrame (util/serialization) before persisting.
  std::string Serialize() const;

  /// Decodes and structurally validates a record produced by Serialize().
  static Result<CheckpointDeltaRecord> Deserialize(std::string_view bytes);
};

/// Deep verification of one delta payload: Deserialize() plus full
/// verification of the embedded checkpoint. Recovery
/// scans truncate a WAL at the first record that fails this.
Status VerifyCheckpointDeltaPayload(std::string_view bytes);

using CheckpointWalParse = FrameLogParse;

/// ParseFrameLog over a checkpoint WAL, one frame per delta record.
CheckpointWalParse ParseCheckpointWal(std::string_view wal);

/// One snapshot generation plus its delta journal, as read back from a
/// SampleStore.
struct CheckpointChain {
  uint64_t generation = 0;
  /// The snapshot's checkpoint payload (frame already verified+removed).
  std::string snapshot;
  /// CRC-valid WAL record payloads, in append order.
  std::vector<std::string> deltas;
  /// The WAL ended in a torn/corrupt record that was ignored.
  bool torn_tail = false;
};

/// Replays the delta chain onto the snapshot: returns the checkpoint of the
/// newest record (the snapshot or the last delta).
Result<IngestCheckpoint> ResolveCheckpointChain(const CheckpointChain& chain);

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_CHECKPOINT_H_
