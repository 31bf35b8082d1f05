// Seeded fault schedules for tests. A fault is armed at a NAMED SITE (a
// string per operation class); the test double that reaches the site
// applies the fault on its next hits. Faults are either deterministic
// ("fail the next 2 writes") or probabilistic with a seeded RNG ("fail ~1%
// of reads"), so every failing schedule is reproducible from the injector
// seed.
//
// The store sites below are reached by FaultEnv (fault_env.h), which wraps
// the store's Env; the network sites by ChaosProxy (chaos_proxy.h).
// Production code links neither.

#ifndef SAMPWH_TESTING_FAULT_INJECTOR_H_
#define SAMPWH_TESTING_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/util/random.h"

namespace sampwh {

/// What happens at an armed injection site.
enum class FaultKind : uint8_t {
  kNone = 0,
  /// The operation fails with Status::IOError and leaves no side effects —
  /// a transient environmental fault (EIO, ENOSPC). Retry-safe.
  kIOError = 1,
  /// A write persists only a prefix of its bytes and then the process
  /// "crashes": the destination file is replaced by the torn prefix and the
  /// operation reports IOError. Must NOT be retried — the tear is left
  /// behind for Recover() to quarantine.
  kTornWrite = 2,
  /// A write stops before its atomic rename: the temp file is left behind,
  /// the destination is untouched, the operation reports IOError. Recover()
  /// drops the orphan temp.
  kCrashBeforeRename = 3,
  /// A read succeeds at the IO level but one bit of the returned buffer is
  /// flipped — simulated media corruption the CRC layer must catch.
  kCorruptRead = 4,
};

std::string_view FaultKindToString(FaultKind kind);

// Store injection sites, one per operation and file kind (FaultEnv maps
// each Env call to one of them).
inline constexpr char kFaultSitePutWrite[] = "sample_store.put.write";
inline constexpr char kFaultSiteGetRead[] = "sample_store.get.read";
inline constexpr char kFaultSiteDelete[] = "sample_store.delete";
inline constexpr char kFaultSiteCheckpointWrite[] =
    "sample_store.checkpoint.write";
inline constexpr char kFaultSiteCheckpointRead[] =
    "sample_store.checkpoint.read";
/// Group-committed delta appends to a checkpoint WAL. kTornWrite persists a
/// prefix of the appended batch (the classic torn tail); kIOError appends
/// nothing. Appends are never retried — the caller must rotate to a fresh
/// snapshot generation after any failure.
inline constexpr char kFaultSiteWalAppend[] =
    "sample_store.checkpoint.wal_append";
/// Whole-file rewrites of a checkpoint WAL: Recover() truncating a torn
/// tail back to its last good record.
inline constexpr char kFaultSiteWalTruncate[] =
    "sample_store.checkpoint.wal_truncate";

/// Thread-safe; one injector is typically shared by a FaultEnv (or a
/// ChaosProxy) and the test driving it.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0);

  /// Deterministic arming: at `site`, pass the first `skip` hits through,
  /// then fire `kind` on the next `count` hits, then return to kNone.
  /// Re-arming a site replaces its previous plan (hit counters persist).
  void Arm(const std::string& site, FaultKind kind, uint64_t count = 1,
           uint64_t skip = 0);

  /// Probabilistic arming: every hit of `site` fires `kind` with
  /// probability `probability`, drawn from the injector's seeded RNG.
  void ArmRandom(const std::string& site, FaultKind kind, double probability);

  void Disarm(const std::string& site);
  void DisarmAll();

  /// Instrumentation side: the fault to apply at this hit of `site`
  /// (kNone when disarmed or exhausted).
  FaultKind Next(const std::string& site);

  /// Observability: how often `site` was reached / actually faulted.
  uint64_t HitCount(const std::string& site) const;
  uint64_t FiredCount(const std::string& site) const;
  uint64_t TotalFired() const;

  /// For kTornWrite: how many of `total_bytes` survive the tear — seeded,
  /// in [1, total_bytes - 1] (0 when the write is too small to tear).
  size_t TornPrefixLength(size_t total_bytes);

  /// For kCorruptRead: which byte of a `total_bytes` buffer gets a bit
  /// flipped.
  size_t CorruptByteIndex(size_t total_bytes);

 private:
  struct SiteState {
    FaultKind kind = FaultKind::kNone;
    uint64_t skip = 0;         // deterministic: hits to pass through first
    uint64_t count = 0;        // deterministic: remaining hits to fail
    double probability = 0.0;  // probabilistic mode when > 0
    uint64_t hits = 0;
    uint64_t fired = 0;
  };

  mutable std::mutex mu_;
  Pcg64 rng_;
  std::unordered_map<std::string, SiteState> sites_;
};

}  // namespace sampwh

#endif  // SAMPWH_TESTING_FAULT_INJECTOR_H_
