// The durable form of a warehouse catalog, after LevelDB's MANIFEST: a
// snapshot (Catalog::SerializeTo bytes in one CRC frame, replaced
// atomically) plus an
// append-only log of the edits made since the snapshot was written. A
// catalog mutation appends one small frame instead of rewriting the whole
// catalog; when the log outgrows the snapshot, a compaction writes a new
// snapshot and truncates the log.

#ifndef SAMPWH_WAREHOUSE_CATALOG_LOG_H_
#define SAMPWH_WAREHOUSE_CATALOG_LOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "src/util/status.h"
#include "src/warehouse/catalog.h"
#include "src/warehouse/ids.h"

namespace sampwh {

/// One catalog mutation as the catalog log records it. The payload is
///
///   u8      kind
///   string  dataset (varint length, bytes)
///   kAddPartition:    varint id, parent size, sample size, phase,
///                     min timestamp, max timestamp, close key (the
///                     snapshot's order)
///   kRemovePartition: varint id
///
/// and each record is one frame (util/serialization) of the log. Kind 3
/// was the add of the layout before close keys; a log holding one is
/// refused (FailedPrecondition), never replayed.
struct CatalogEdit {
  enum class Kind : uint8_t {
    kCreateDataset = 1,
    kDropDataset = 2,
    kRemovePartition = 4,
    kAddPartition = 5,
  };

  Kind kind = Kind::kCreateDataset;
  DatasetId dataset;
  /// kAddPartition: the whole entry. kRemovePartition: only `id`.
  PartitionInfo partition;

  static CatalogEdit CreateDataset(const DatasetId& dataset);
  static CatalogEdit DropDataset(const DatasetId& dataset);
  static CatalogEdit AddPartition(const DatasetId& dataset,
                                  const PartitionInfo& info);
  static CatalogEdit RemovePartition(const DatasetId& dataset, PartitionId id);

  std::string Serialize() const;
  /// Decodes a payload Serialize() produced; Corruption on anything else.
  static Result<CatalogEdit> Deserialize(std::string_view payload);

  /// Applies the edit and ignores the catalog's refusals: a create of a
  /// present dataset, a drop or removal of an absent one, and an add to an
  /// absent dataset or under a present id change nothing. A log replayed
  /// over the snapshot it was appended to is never refused; replayed over a
  /// snapshot that already holds its edits it leaves that snapshot as it
  /// was, so replaying a log twice is the same as replaying it once
  /// (DESIGN.md "Catalog log").
  void ApplyTo(Catalog* catalog) const;
};

/// The snapshot at a manifest path and the log beside it. Thread-safe.
class CatalogLog {
 public:
  explicit CatalogLog(std::string manifest_path);

  /// The bytes of the snapshot file of `catalog`: its SerializeTo payload
  /// as one stored frame.
  static std::string EncodeSnapshot(const Catalog& catalog);

  /// Where the log of the snapshot at `manifest_path` lives.
  static std::string PathFor(const std::string& manifest_path);

  /// Reads the snapshot at `manifest_path` and replays its log over it. A
  /// snapshot that is not one whole frame is Corruption. A snapshot or log
  /// of a layout older than this build reads is FailedPrecondition naming
  /// the file. A missing log replays nothing; a torn tail, which only an
  /// append that never returned can leave, is dropped.
  static Result<Catalog> Load(const std::string& manifest_path);

  /// True when the next mutation must compact first: the log is not open,
  /// or it has outgrown the snapshot.
  bool NeedsCompaction() const;
  /// True when appends may go to the log: a compaction succeeded and no
  /// append has failed since. A new CatalogLog starts closed, so the
  /// snapshot its records apply to is always written before the first one.
  bool open() const;

  /// Appends one edit. Fails without writing when the log is closed; a
  /// failed append closes it, so nothing lands behind a torn record.
  Status Append(const CatalogEdit& edit);

  /// Writes `catalog` as the snapshot, then truncates the log (removes it)
  /// and opens it. The caller keeps every append out until this returns. A
  /// failure leaves the log as open as it was: the log still holds every
  /// edit.
  Status Compact(const Catalog& catalog);

 private:
  const std::string manifest_path_;
  const std::string log_path_;
  mutable std::mutex mu_;
  bool open_ = false;
  uint64_t log_bytes_ = 0;
  uint64_t snapshot_bytes_ = 0;
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_CATALOG_LOG_H_
