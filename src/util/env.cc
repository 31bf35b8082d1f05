#include "src/util/env.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/util/serialization.h"

namespace sampwh {

namespace {

Status ErrnoStatus(int err, const std::string& what) {
  std::string msg = what + ": " + std::strerror(err);
  if (err == ENOENT || err == ENOTDIR) return Status::NotFound(std::move(msg));
  return Status::IOError(std::move(msg));
}

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

Status PosixEnv::ReadFile(const std::string& path, std::string* contents) {
  return sampwh::ReadFile(path, contents);
}

Status PosixEnv::WriteFileAtomic(const std::string& path,
                                 std::string_view contents) {
  return sampwh::WriteFileAtomic(path, contents);
}

Status PosixEnv::AppendFile(const std::string& path, std::string_view bytes) {
  return AppendBytesToFile(path, bytes);
}

Status PosixEnv::Rename(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus(errno, "cannot rename " + from);
  }
  return Status::OK();
}

Status PosixEnv::Remove(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::remove(path, ec)) return Status::OK();
  if (ec) return ErrnoStatus(ec.value(), "cannot remove " + path);
  return Status::NotFound("no file " + path);
}

Status PosixEnv::ListDir(const std::string& dir, std::vector<DirEntry>* entries,
                         std::string_view name_prefix) {
  entries->clear();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.compare(0, name_prefix.size(), name_prefix) != 0) continue;
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    const uint64_t size = entry.file_size(entry_ec);
    // A file removed between the scan and its stat is simply not listed.
    if (entry_ec) continue;
    entries->push_back({std::move(name), size});
  }
  if (ec) return ErrnoStatus(ec.value(), "cannot list " + dir);
  return Status::OK();
}

bool PosixEnv::FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

Status PosixEnv::CreateDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return ErrnoStatus(ec.value(), "cannot create directory " + dir);
  return Status::OK();
}

Status MemEnv::ReadFile(const std::string& path, std::string* contents) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file " + path);
  *contents = it->second;
  return Status::OK();
}

Status MemEnv::WriteFileAtomic(const std::string& path,
                               std::string_view contents) {
  // Copy outside the lock; the replaced bytes are freed outside it too.
  std::string bytes(contents);
  {
    std::lock_guard<std::mutex> lock(mu_);
    files_[path].swap(bytes);
  }
  return Status::OK();
}

Status MemEnv::AppendFile(const std::string& path, std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path].append(bytes);
  return Status::OK();
}

Status MemEnv::Rename(const std::string& from, const std::string& to) {
  std::string replaced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(from);
    if (it == files_.end()) return Status::NotFound("cannot rename " + from);
    std::string bytes = std::move(it->second);
    files_.erase(it);
    replaced = std::exchange(files_[to], std::move(bytes));
  }
  return Status::OK();
}

Status MemEnv::Remove(const std::string& path) {
  decltype(files_)::node_type removed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    removed = files_.extract(path);
  }
  if (removed.empty()) return Status::NotFound("no file " + path);
  return Status::OK();
}

Status MemEnv::ListDir(const std::string& dir, std::vector<DirEntry>* entries,
                       std::string_view name_prefix) {
  entries->clear();
  std::string first = dir + "/";
  const size_t name_begin = first.size();
  first.append(name_prefix);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = files_.lower_bound(first);
       it != files_.end() && it->first.compare(0, first.size(), first) == 0;
       ++it) {
    // Files of subdirectories sort among these; they are not listed.
    if (it->first.find('/', name_begin) != std::string::npos) continue;
    entries->push_back({it->first.substr(name_begin), it->second.size()});
  }
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.find(path) != files_.end();
}

Status MemEnv::CreateDir(const std::string&) { return Status::OK(); }

}  // namespace sampwh
