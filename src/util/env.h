// The filesystem seam under the sample store. Every file the store reads or
// writes goes through an Env: PosixEnv is the real filesystem, MemEnv a
// mutex-guarded map of path -> bytes with the same semantics, so one store
// implementation serves both durable nodes and in-memory simulations.
//
// Status contract shared by both implementations: an absent file is
// NotFound (ReadFile, Remove, Rename of a missing source); every other
// failure is IOError. WriteFileAtomic writes "<path>.tmp" and renames it
// over `path`, so readers see the old bytes or the new ones, never a mix.
// AppendFile is not atomic: a crash mid-append may leave a torn tail.

#ifndef SAMPWH_UTIL_ENV_H_
#define SAMPWH_UTIL_ENV_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace sampwh {

/// One regular file in a directory listing.
struct DirEntry {
  std::string name;  // basename
  uint64_t size = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// The process-wide PosixEnv.
  static Env* Default();

  virtual Status ReadFile(const std::string& path, std::string* contents) = 0;
  virtual Status WriteFileAtomic(const std::string& path,
                                 std::string_view contents) = 0;
  /// Creates `path` if absent, then appends `bytes`.
  virtual Status AppendFile(const std::string& path,
                            std::string_view bytes) = 0;
  /// Moves `from` onto `to`, replacing any file there.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Remove(const std::string& path) = 0;
  /// Regular files directly inside `dir` whose names start with
  /// `name_prefix`, in no particular order.
  virtual Status ListDir(const std::string& dir, std::vector<DirEntry>* entries,
                         std::string_view name_prefix) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  /// Creates `dir` and its parents; OK when it already exists.
  virtual Status CreateDir(const std::string& dir) = 0;
};

/// The real filesystem. ReadFile and WriteFileAtomic are the ones in
/// util/serialization.
class PosixEnv : public Env {
 public:
  Status ReadFile(const std::string& path, std::string* contents) override;
  Status WriteFileAtomic(const std::string& path,
                         std::string_view contents) override;
  Status AppendFile(const std::string& path, std::string_view bytes) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status ListDir(const std::string& dir, std::vector<DirEntry>* entries,
                 std::string_view name_prefix) override;
  bool FileExists(const std::string& path) override;
  Status CreateDir(const std::string& dir) override;
};

/// Files held in memory, keyed by full path; thread-safe. Directories are
/// implicit: every path names a file, and a directory lists the files one
/// level below it. The lock is held only to find or replace an entry, so
/// callers decoding what they read never serialize on it.
class MemEnv : public Env {
 public:
  Status ReadFile(const std::string& path, std::string* contents) override;
  Status WriteFileAtomic(const std::string& path,
                         std::string_view contents) override;
  Status AppendFile(const std::string& path, std::string_view bytes) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status ListDir(const std::string& dir, std::vector<DirEntry>* entries,
                 std::string_view name_prefix) override;
  bool FileExists(const std::string& path) override;
  Status CreateDir(const std::string& dir) override;

 private:
  std::mutex mu_;
  std::map<std::string, std::string, std::less<>> files_;
};

}  // namespace sampwh

#endif  // SAMPWH_UTIL_ENV_H_
