// Writers of the layouts of older builds, for tests of the format floor.
//
// Rewrite turns a store into the layout of builds before the one stored
// frame: samples and checkpoint snapshots in the 20-byte SWV2 envelope,
// the MANIFEST snapshot as a bare SWM1 payload. The payloads inside are
// this build's (SWS2 samples, WCKP checkpoints); the catalog log and the
// checkpoint WALs were already frame logs then and are left as they are.
//
// The Previous* writers give the records of the layout just before close
// keys: a catalog without them (SWM1 snapshot, add-partition log records
// of kind 3) and version-1 checkpoint records, which could carry a pending
// roll-in (checkpoint A) instead of the next close key.
//
// DirectoryContents lets a test show that a refused or damaged store was
// left exactly as it was.

#ifndef SAMPWH_TESTS_WAREHOUSE_OLDER_LAYOUT_H_
#define SAMPWH_TESTS_WAREHOUSE_OLDER_LAYOUT_H_

#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/serialization.h"
#include "src/warehouse/catalog.h"
#include "src/warehouse/catalog_log.h"
#include "src/warehouse/checkpoint.h"

namespace sampwh::older_layout {

/// A partition entry as the catalog wrote it before close keys.
inline void PutPreviousPartitionInfo(const PartitionInfo& info,
                                     BinaryWriter* writer) {
  writer->PutVarint64(info.id);
  writer->PutVarint64(info.parent_size);
  writer->PutVarint64(info.sample_size);
  writer->PutVarint64(static_cast<uint64_t>(info.phase));
  writer->PutVarint64(info.min_timestamp);
  writer->PutVarint64(info.max_timestamp);
}

/// This build's catalog snapshot payload in the layout before close keys:
/// magic "SWM1", and partition entries without their close key.
inline std::string PreviousCatalogSnapshot(std::string_view payload) {
  BinaryReader reader(payload);
  BinaryWriter writer;
  uint32_t magic = 0;
  uint64_t datasets = 0;
  EXPECT_TRUE(reader.GetFixed32(&magic).ok());
  EXPECT_TRUE(reader.GetVarint64(&datasets).ok());
  writer.PutFixed32(0x53574d31);
  writer.PutVarint64(datasets);
  for (uint64_t d = 0; d < datasets; ++d) {
    std::string id;
    uint64_t next_id = 0, partitions = 0;
    EXPECT_TRUE(reader.GetString(&id).ok());
    EXPECT_TRUE(reader.GetVarint64(&next_id).ok());
    EXPECT_TRUE(reader.GetVarint64(&partitions).ok());
    writer.PutString(id);
    writer.PutVarint64(next_id);
    writer.PutVarint64(partitions);
    for (uint64_t i = 0; i < partitions; ++i) {
      PartitionInfo info;
      EXPECT_TRUE(DecodePartitionInfo(&reader, &info).ok());
      PutPreviousPartitionInfo(info, &writer);
    }
  }
  EXPECT_TRUE(reader.AtEnd());
  return writer.Release();
}

/// This build's catalog log in the layout before close keys: each
/// add-partition record as kind 3, without its close key.
inline std::string PreviousCatalogLog(std::string_view log) {
  std::string out;
  for (const std::string& payload : ParseFrameLog(log, 4096).records) {
    auto edit = CatalogEdit::Deserialize(payload);
    EXPECT_TRUE(edit.ok()) << edit.status().ToString();
    if (!edit.ok() ||
        edit.value().kind != CatalogEdit::Kind::kAddPartition) {
      AppendFrame(&out, payload);
      continue;
    }
    BinaryWriter writer;
    const char kind = 3;
    writer.PutRaw(&kind, 1);
    writer.PutString(edit.value().dataset);
    PutPreviousPartitionInfo(edit.value().partition, &writer);
    AppendFrame(&out, writer.buffer());
  }
  return out;
}

/// This build's checkpoint record `payload` as version 1 wrote it: no next
/// close key, and, when `pending_sample` is not empty, that serialized
/// sample pending roll-in (a checkpoint A).
inline std::string PreviousCheckpointRecord(std::string_view payload,
                                            std::string_view pending_sample) {
  auto ckpt = IngestCheckpoint::Deserialize(payload);
  EXPECT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  const IngestCheckpoint& c = ckpt.value();
  BinaryWriter writer;
  writer.PutFixed32(kCheckpointRecordMagic);
  writer.PutVarint64(1);
  writer.PutVarint64(c.next_sequence);
  writer.PutVarint64(c.partitions_started);
  writer.PutVarint64(c.created_unix_micros);
  writer.PutFixed64(c.rng.state_hi);
  writer.PutFixed64(c.rng.state_lo);
  writer.PutFixed64(c.rng.inc_hi);
  writer.PutFixed64(c.rng.inc_lo);
  writer.PutVarint64(c.rolled_in.size());
  for (const PartitionId id : c.rolled_in) writer.PutVarint64(id);
  writer.PutVarint64(c.progress.elements);
  writer.PutVarint64(c.progress.sample_size);
  writer.PutVarint64(c.progress.first_timestamp);
  writer.PutVarint64(c.progress.last_timestamp);
  writer.PutString(c.sampler_state);
  writer.PutVarint64(pending_sample.empty() ? 0 : 1);
  if (!pending_sample.empty()) {
    writer.PutString(pending_sample);
    writer.PutVarint64(c.progress.first_timestamp);
    writer.PutVarint64(c.progress.last_timestamp);
    writer.PutVarint64(c.rolled_in.size());  // the id lower bound
  }
  return writer.Release();
}

/// `payload` as the WAL record of a version-1 checkpoint A of the state it
/// holds, with `pending_sample` pending roll-in.
inline std::string PreviousCheckpointA(std::string_view payload,
                                       std::string_view pending_sample) {
  CheckpointDeltaRecord record;
  record.checkpoint_payload = PreviousCheckpointRecord(payload, pending_sample);
  return record.Serialize();
}

/// `payload` in the SWV2 envelope: fixed32 magic "SWV2", fixed32 version
/// 2, fixed64 payload size, fixed32 CRC-32 of the payload, the payload.
inline std::string Swv2Envelope(std::string_view payload) {
  BinaryWriter writer;
  writer.PutFixed32(0x32565753);
  writer.PutFixed32(2);
  writer.PutFixed64(payload.size());
  writer.PutFixed32(Crc32(payload));
  writer.PutRaw(payload.data(), payload.size());
  return writer.Release();
}

/// Rewrites the stored files of the store directory `dir`, written by this
/// build, into the older layout: every ".sample" and ".ckpt" file in the
/// SWV2 envelope, and a "MANIFEST" snapshot bare.
inline void Rewrite(const std::string& dir) {
  std::vector<std::filesystem::path> stored;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string ext = entry.path().extension().string();
    if (entry.path().filename() == "MANIFEST" || ext == ".sample" ||
        ext == ".ckpt") {
      stored.push_back(entry.path());
    }
  }
  for (const std::filesystem::path& file : stored) {
    const std::string path = file.string();
    std::string bytes;
    ASSERT_TRUE(ReadFile(path, &bytes).ok()) << path;
    std::string_view payload;
    ASSERT_TRUE(DecodeStoredFile(bytes, path, &payload).ok()) << path;
    ASSERT_TRUE(WriteFileAtomic(path, file.filename() == "MANIFEST"
                                          ? PreviousCatalogSnapshot(payload)
                                          : Swv2Envelope(payload))
                    .ok())
        << path;
  }
}

/// The files of `dir` by name, with their bytes.
inline std::map<std::string, std::string> DirectoryContents(
    const std::string& dir) {
  std::map<std::string, std::string> contents;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string bytes;
    EXPECT_TRUE(ReadFile(entry.path().string(), &bytes).ok());
    contents[entry.path().filename().string()] = std::move(bytes);
  }
  return contents;
}

}  // namespace sampwh::older_layout

#endif  // SAMPWH_TESTS_WAREHOUSE_OLDER_LAYOUT_H_
