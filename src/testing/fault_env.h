// Store faults injected at the filesystem seam. FaultEnv wraps any Env and
// passes every call through unchanged, except where an armed FaultInjector
// site fires. The store never sees the injector: the site is picked from
// the operation and the file suffix, which names the file kind.
//
//   Env call          file       site
//   ReadFile          *.sample   kFaultSiteGetRead
//   WriteFileAtomic   *.sample   kFaultSitePutWrite
//   Remove            *.sample   kFaultSiteDelete
//   WriteFileAtomic   *.ckpt     kFaultSiteCheckpointWrite
//   ReadFile          *.ckpt     kFaultSiteCheckpointRead
//   AppendFile        *.wal      kFaultSiteWalAppend
//   WriteFileAtomic   *.wal      kFaultSiteWalTruncate
//
// What a fired fault does:
//   kIOError            the call fails with IOError and changes nothing;
//   kCorruptRead        a read succeeds with one byte flipped;
//   kTornWrite          a seeded prefix of the bytes is persisted (an
//                       atomic write publishes the prefix, an append
//                       appends it), then the process crashes;
//   kCrashBeforeRename  an atomic write leaves only "<path>.tmp" behind,
//                       any other mutating call does nothing; then the
//                       process crashes.
// A crash is final: every later mutating call (write, append, rename,
// remove, create) fails with IOError until Restart(), so a retry cannot
// overwrite the damage the crash left. Reads and listings keep working,
// so a test can look at the crashed state. This is the crash-state model
// of LevelDB's fault-injection Env, without its power-loss half.

#ifndef SAMPWH_TESTING_FAULT_ENV_H_
#define SAMPWH_TESTING_FAULT_ENV_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/testing/fault_injector.h"
#include "src/util/env.h"

namespace sampwh {

class FaultEnv : public Env {
 public:
  /// Called with the path at the start of every ReadFile. The store reads
  /// a sample under its key's lock stripe, so a callback that blocks
  /// stalls exactly that stripe.
  using ReadCallback = std::function<void(const std::string& path)>;

  /// Wraps `base`, which must outlive this Env. A null `injector` arms
  /// nothing.
  explicit FaultEnv(Env* base, std::shared_ptr<FaultInjector> injector = {},
                    ReadCallback on_read = {});

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

  /// Whether a torn write or a crash before rename has fired since the
  /// last Restart().
  bool crashed() const { return crashed_.load(); }

  /// Ends the simulated crash: mutating calls reach the base Env again.
  /// Files are left exactly as the crash left them.
  void Restart() { crashed_.store(false); }

 private:
  /// The fault for this hit of `site` (kNone for no site or no injector).
  FaultKind Draw(const char* site);
  /// IOError while crashed; OK otherwise.
  Status RefuseIfCrashed(const std::string& path) const;
  /// Records a crash and returns the IOError the crashed call reports.
  Status Crash(std::string_view what, const std::string& path);

  Env* const base_;
  const std::shared_ptr<FaultInjector> injector_;
  const ReadCallback on_read_;
  std::atomic<bool> crashed_{false};
};

}  // namespace sampwh

#endif  // SAMPWH_TESTING_FAULT_ENV_H_
