#include "src/warehouse/catalog_log.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/util/serialization.h"

namespace sampwh {

namespace {

// A record holds a kind byte, a dataset id of at most 200 bytes and at
// most eight varints.
constexpr uint32_t kMaxCatalogEditBytes = 4096;

// The add-partition kind of the layout before close keys.
constexpr uint8_t kPreviousAddPartition = 3;

}  // namespace

CatalogEdit CatalogEdit::CreateDataset(const DatasetId& dataset) {
  return CatalogEdit{Kind::kCreateDataset, dataset, {}};
}

CatalogEdit CatalogEdit::DropDataset(const DatasetId& dataset) {
  return CatalogEdit{Kind::kDropDataset, dataset, {}};
}

CatalogEdit CatalogEdit::AddPartition(const DatasetId& dataset,
                                      const PartitionInfo& info) {
  return CatalogEdit{Kind::kAddPartition, dataset, info};
}

CatalogEdit CatalogEdit::RemovePartition(const DatasetId& dataset,
                                         PartitionId id) {
  PartitionInfo info;
  info.id = id;
  return CatalogEdit{Kind::kRemovePartition, dataset, info};
}

std::string CatalogEdit::Serialize() const {
  BinaryWriter writer;
  const auto tag = static_cast<char>(kind);
  writer.PutRaw(&tag, 1);
  writer.PutString(dataset);
  if (kind == Kind::kAddPartition) {
    EncodePartitionInfo(partition, &writer);
  } else if (kind == Kind::kRemovePartition) {
    writer.PutVarint64(partition.id);
  }
  return writer.Release();
}

Result<CatalogEdit> CatalogEdit::Deserialize(std::string_view payload) {
  BinaryReader reader(payload);
  std::string_view tag;
  SAMPWH_RETURN_IF_ERROR(reader.GetRaw(1, &tag));
  if (static_cast<uint8_t>(tag[0]) == kPreviousAddPartition) {
    return Status::FailedPrecondition(
        "catalog log record of a layout older than this build reads");
  }
  CatalogEdit edit;
  edit.kind = static_cast<Kind>(static_cast<uint8_t>(tag[0]));
  SAMPWH_RETURN_IF_ERROR(reader.GetString(&edit.dataset));
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(edit.dataset));
  switch (edit.kind) {
    case Kind::kCreateDataset:
    case Kind::kDropDataset:
      break;
    case Kind::kAddPartition:
      SAMPWH_RETURN_IF_ERROR(DecodePartitionInfo(&reader, &edit.partition));
      break;
    case Kind::kRemovePartition:
      SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&edit.partition.id));
      break;
    default:
      return Status::Corruption("unknown catalog edit kind");
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after catalog edit");
  }
  return edit;
}

void CatalogEdit::ApplyTo(Catalog* catalog) const {
  // A refusal is the catalog already holding the edit's outcome; see the
  // header.
  switch (kind) {
    case Kind::kCreateDataset:
      (void)catalog->CreateDataset(dataset);
      break;
    case Kind::kDropDataset:
      (void)catalog->DropDataset(dataset);
      break;
    case Kind::kAddPartition:
      (void)catalog->AddPartition(dataset, partition);
      break;
    case Kind::kRemovePartition:
      (void)catalog->RemovePartition(dataset, partition.id);
      break;
  }
}

CatalogLog::CatalogLog(std::string manifest_path)
    : manifest_path_(std::move(manifest_path)),
      log_path_(PathFor(manifest_path_)) {}

std::string CatalogLog::EncodeSnapshot(const Catalog& catalog) {
  BinaryWriter writer;
  catalog.SerializeTo(&writer);
  return EncodeFrame(writer.buffer());
}

std::string CatalogLog::PathFor(const std::string& manifest_path) {
  return manifest_path + ".log";
}

Result<Catalog> CatalogLog::Load(const std::string& manifest_path) {
  std::string bytes;
  SAMPWH_RETURN_IF_ERROR(ReadFile(manifest_path, &bytes));
  std::string_view snapshot;
  SAMPWH_RETURN_IF_ERROR(DecodeStoredFile(bytes, manifest_path, &snapshot));
  BinaryReader reader(snapshot);
  Result<Catalog> catalog = Catalog::DeserializeFrom(&reader);
  if (!catalog.ok()) return NameFileInRefusal(catalog.status(), manifest_path);
  const std::string log_path = PathFor(manifest_path);
  const Status read = ReadFile(log_path, &bytes);
  if (read.IsNotFound()) return catalog;
  SAMPWH_RETURN_IF_ERROR(read);
  // A record whose frame verifies but does not decode was written by no
  // append of this format: that is corruption, not a tear to drop.
  for (const std::string& payload :
       ParseFrameLog(bytes, kMaxCatalogEditBytes).records) {
    const Result<CatalogEdit> edit = CatalogEdit::Deserialize(payload);
    if (!edit.ok()) return NameFileInRefusal(edit.status(), log_path);
    edit.value().ApplyTo(&catalog.value());
  }
  return catalog;
}

bool CatalogLog::NeedsCompaction() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !open_ || log_bytes_ > snapshot_bytes_;
}

bool CatalogLog::open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

Status CatalogLog::Append(const CatalogEdit& edit) {
  const std::string frame = EncodeFrame(edit.Serialize());
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) {
    return Status::IOError("catalog log " + log_path_ + " is not open");
  }
  const Status appended = AppendBytesToFile(log_path_, frame);
  if (!appended.ok()) {
    open_ = false;
    return appended;
  }
  log_bytes_ += frame.size();
  return Status::OK();
}

Status CatalogLog::Compact(const Catalog& catalog) {
  const std::string snapshot = EncodeSnapshot(catalog);
  std::lock_guard<std::mutex> lock(mu_);
  // Snapshot first, truncation second: a crash between the two leaves a
  // log whose edits the snapshot already holds, and replaying them changes
  // nothing (CatalogEdit::ApplyTo).
  SAMPWH_RETURN_IF_ERROR(WriteFileAtomic(manifest_path_, snapshot));
  snapshot_bytes_ = snapshot.size();
  // Truncation is one unlink: a missing log is an empty one, and the next
  // append creates it again.
  if (::unlink(log_path_.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("cannot truncate " + log_path_ + ": " +
                           std::strerror(errno));
  }
  log_bytes_ = 0;
  open_ = true;
  return Status::OK();
}

}  // namespace sampwh
