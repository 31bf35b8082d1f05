#include "src/warehouse/ids.h"

namespace sampwh {

Status ValidateDatasetId(const DatasetId& id) {
  if (id.empty()) return Status::InvalidArgument("empty dataset id");
  if (id.size() > 200) return Status::InvalidArgument("dataset id too long");
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "dataset id may only contain [A-Za-z0-9_.-]: " + id);
    }
  }
  return Status::OK();
}

}  // namespace sampwh
