#include "src/testing/fault_env.h"

#include <utility>

namespace sampwh {

namespace {

enum class Op { kRead, kWrite, kAppend, kRemove };

bool HasSuffix(std::string_view path, std::string_view suffix) {
  return path.size() > suffix.size() &&
         path.substr(path.size() - suffix.size()) == suffix;
}

// The injection site `op` on `path` reaches, or nullptr for none. The
// suffixes are the store's file kinds (sample_store.cc).
const char* SiteFor(Op op, const std::string& path) {
  if (HasSuffix(path, ".sample")) {
    switch (op) {
      case Op::kRead:
        return kFaultSiteGetRead;
      case Op::kWrite:
        return kFaultSitePutWrite;
      case Op::kRemove:
        return kFaultSiteDelete;
      case Op::kAppend:
        return nullptr;
    }
  }
  if (HasSuffix(path, ".ckpt")) {
    if (op == Op::kRead) return kFaultSiteCheckpointRead;
    if (op == Op::kWrite) return kFaultSiteCheckpointWrite;
  }
  if (HasSuffix(path, ".wal")) {
    if (op == Op::kAppend) return kFaultSiteWalAppend;
    if (op == Op::kWrite) return kFaultSiteWalTruncate;
  }
  return nullptr;
}

}  // namespace

FaultEnv::FaultEnv(Env* base, std::shared_ptr<FaultInjector> injector,
                   ReadCallback on_read)
    : base_(base),
      injector_(std::move(injector)),
      on_read_(std::move(on_read)) {}

FaultKind FaultEnv::Draw(const char* site) {
  if (site == nullptr || injector_ == nullptr) return FaultKind::kNone;
  return injector_->Next(site);
}

Status FaultEnv::RefuseIfCrashed(const std::string& path) const {
  if (!crashed_.load()) return Status::OK();
  return Status::IOError("crashed before touching " + path);
}

Status FaultEnv::Crash(std::string_view what, const std::string& path) {
  crashed_.store(true);
  return Status::IOError("injected crash: " + std::string(what) + " " + path);
}

Status FaultEnv::ReadFile(const std::string& path, std::string* contents) {
  if (on_read_) on_read_(path);
  const FaultKind fault = Draw(SiteFor(Op::kRead, path));
  if (fault == FaultKind::kIOError) {
    return Status::IOError("injected read fault on " + path);
  }
  SAMPWH_RETURN_IF_ERROR(base_->ReadFile(path, contents));
  if (fault == FaultKind::kCorruptRead && !contents->empty()) {
    (*contents)[injector_->CorruptByteIndex(contents->size())] ^= 0x01;
  }
  return Status::OK();
}

Status FaultEnv::WriteFileAtomic(const std::string& path,
                                 std::string_view contents) {
  SAMPWH_RETURN_IF_ERROR(RefuseIfCrashed(path));
  switch (Draw(SiteFor(Op::kWrite, path))) {
    case FaultKind::kIOError:
      return Status::IOError("injected write fault on " + path);
    case FaultKind::kTornWrite:
      // Power lost after the rename: the destination holds a prefix.
      base_->WriteFileAtomic(
          path, contents.substr(0, injector_->TornPrefixLength(
                                       contents.size())));
      return Crash("torn write of", path);
    case FaultKind::kCrashBeforeRename:
      // Died between the temp write and its rename: the temp file is
      // orphaned, the destination untouched.
      base_->WriteFileAtomic(path + ".tmp", contents);
      return Crash("crash before rename of", path);
    default:
      return base_->WriteFileAtomic(path, contents);
  }
}

Status FaultEnv::AppendFile(const std::string& path, std::string_view bytes) {
  SAMPWH_RETURN_IF_ERROR(RefuseIfCrashed(path));
  switch (Draw(SiteFor(Op::kAppend, path))) {
    case FaultKind::kIOError:
      return Status::IOError("injected append fault on " + path);
    case FaultKind::kTornWrite:
      // A prefix of the group commit reaches the file: the torn tail.
      base_->AppendFile(
          path, bytes.substr(0, injector_->TornPrefixLength(bytes.size())));
      return Crash("torn append to", path);
    case FaultKind::kCrashBeforeRename:
      return Crash("lost append to", path);
    default:
      return base_->AppendFile(path, bytes);
  }
}

Status FaultEnv::Rename(const std::string& from, const std::string& to) {
  SAMPWH_RETURN_IF_ERROR(RefuseIfCrashed(from));
  return base_->Rename(from, to);
}

Status FaultEnv::Remove(const std::string& path) {
  SAMPWH_RETURN_IF_ERROR(RefuseIfCrashed(path));
  const FaultKind fault = Draw(SiteFor(Op::kRemove, path));
  if (fault == FaultKind::kIOError) {
    return Status::IOError("injected remove fault on " + path);
  }
  if (fault == FaultKind::kTornWrite ||
      fault == FaultKind::kCrashBeforeRename) {
    return Crash("crash before removing", path);
  }
  return base_->Remove(path);
}

Status FaultEnv::ListDir(const std::string& dir,
                         std::vector<DirEntry>* entries,
                         std::string_view name_prefix) {
  return base_->ListDir(dir, entries, name_prefix);
}

bool FaultEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultEnv::CreateDir(const std::string& dir) {
  SAMPWH_RETURN_IF_ERROR(RefuseIfCrashed(dir));
  return base_->CreateDir(dir);
}

}  // namespace sampwh
