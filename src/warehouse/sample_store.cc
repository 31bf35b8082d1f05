#include "src/warehouse/sample_store.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <utility>

#include "src/util/serialization.h"

namespace sampwh {

namespace {

std::string SerializeSample(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return WrapSampleEnvelope(writer.buffer());
}

// Decodes stored bytes: v2 envelope (verified) or bare v1 payload from a
// pre-envelope store. Every decode failure is normalized to Corruption so
// both backends surface one category for damaged payloads.
Result<PartitionSample> DeserializeSample(const std::string& bytes) {
  std::string_view payload(bytes);
  if (HasSampleEnvelope(bytes)) {
    SAMPWH_RETURN_IF_ERROR(UnwrapSampleEnvelope(bytes, &payload));
  }
  Result<PartitionSample> decoded = PartitionSample::DeserializeWhole(payload);
  if (!decoded.ok()) {
    return Status::Corruption("corrupt sample payload: " +
                              decoded.status().message());
  }
  return decoded;
}

// Full verification for recovery scans: envelope + decode + structural
// invariants.
Status VerifySampleBytes(const std::string& bytes) {
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample sample, DeserializeSample(bytes));
  return sample.Validate();
}

// Content digest of stored sample bytes: CRC32 of the serialized payload
// (envelope stripped, CRC verified) folded with the payload length. The
// same sample serializes to the same bytes on every node, so equal digests
// across replicas mean equal stored content.
Result<uint64_t> DigestStoredSample(const std::string& bytes) {
  std::string_view payload(bytes);
  if (HasSampleEnvelope(bytes)) {
    SAMPWH_RETURN_IF_ERROR(UnwrapSampleEnvelope(bytes, &payload));
  } else {
    // Bare v1 payload carries no CRC of its own: prove it decodes before
    // trusting its bytes as content.
    SAMPWH_RETURN_IF_ERROR(DeserializeSample(bytes).status());
  }
  return (static_cast<uint64_t>(Crc32(payload)) << 32) |
         (static_cast<uint64_t>(payload.size()) & 0xffffffffull);
}

bool HasSuffix(const std::string& name, std::string_view suffix) {
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsSampleFileName(const std::string& name) {
  return HasSuffix(name, ".sample");
}

// Parses "<dataset>.<generation>.ckpt". Dataset ids may themselves contain
// dots, so the generation is always the LAST dot-separated segment before
// the suffix; it must be purely numeric.
bool ParseCheckpointName(const std::string& name, DatasetId* dataset,
                         uint64_t* generation) {
  if (!HasSuffix(name, ".ckpt")) return false;
  const std::string stem = name.substr(0, name.size() - 5);
  const size_t last_dot = stem.rfind('.');
  if (last_dot == std::string::npos || last_dot == 0) return false;
  const std::string gen_str = stem.substr(last_dot + 1);
  if (gen_str.empty() ||
      gen_str.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *dataset = stem.substr(0, last_dot);
  *generation = std::stoull(gen_str);
  return true;
}

// Parses "<dataset>.<generation>.wal" — the delta journal owned by the
// snapshot generation of the same stem. Same last-numeric-segment rule as
// ParseCheckpointName.
bool ParseWalName(const std::string& name, DatasetId* dataset,
                  uint64_t* generation) {
  if (!HasSuffix(name, ".wal")) return false;
  const std::string stem = name.substr(0, name.size() - 4);
  const size_t last_dot = stem.rfind('.');
  if (last_dot == std::string::npos || last_dot == 0) return false;
  const std::string gen_str = stem.substr(last_dot + 1);
  if (gen_str.empty() ||
      gen_str.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *dataset = stem.substr(0, last_dot);
  *generation = std::stoull(gen_str);
  return true;
}

// Appends raw bytes to a file (created if absent). Deliberately NOT atomic:
// WAL appends rely on per-record CRC framing instead — a tear at the tail
// is detected and dropped on read.
Status AppendBytesToFile(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for append");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    return Status::IOError("short append to " + path);
  }
  return Status::OK();
}

// Builds one framed batch from delta record payloads.
std::string FrameWalBatch(const std::vector<std::string>& records) {
  std::string batch;
  for (const std::string& record : records) {
    AppendCheckpointWalFrame(&batch, record);
  }
  return batch;
}

// Length of the prefix of `wal` covering records that pass DEEP verification
// (frame + CRC + record decode + embedded checkpoint decode). Recovery
// truncates a WAL to this length.
size_t DeepVerifiedWalPrefix(std::string_view wal) {
  const CheckpointWalParse parse = ParseCheckpointWal(wal);
  size_t valid = 0;
  for (const std::string& record : parse.records) {
    if (!VerifyCheckpointDeltaPayload(record).ok()) break;
    valid += kCheckpointWalFrameBytes + record.size();
  }
  return valid;
}

// Full verification for recovery scans of checkpoint bytes: envelope +
// record decode + embedded sampler-state / pending-sample decode.
Status VerifyCheckpointBytes(const std::string& bytes) {
  std::string_view payload;
  SAMPWH_RETURN_IF_ERROR(UnwrapSampleEnvelope(bytes, &payload));
  return VerifyCheckpointPayload(payload);
}

void SleepBackoff(std::chrono::microseconds backoff) {
  if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
}

}  // namespace

std::string QuarantineDestination(const std::string& path) {
  std::string dest = path + ".quarantine";
  std::error_code ec;
  for (uint64_t n = 1; std::filesystem::exists(dest, ec); ++n) {
    dest = path + ".quarantine." + std::to_string(n);
  }
  return dest;
}

void SampleStore::SetFaultInjector(std::shared_ptr<FaultInjector> injector) {
  std::lock_guard<std::mutex> lock(config_mu_);
  injector_ = std::move(injector);
}

void SampleStore::SetRetryPolicy(const RetryPolicy& policy) {
  std::lock_guard<std::mutex> lock(config_mu_);
  retry_policy_ = policy;
  if (retry_policy_.max_attempts < 1) retry_policy_.max_attempts = 1;
}

SampleStore::RetryPolicy SampleStore::retry_policy() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return retry_policy_;
}

std::shared_ptr<FaultInjector> SampleStore::fault_injector() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return injector_;
}

StoreStats SampleStore::GetStoreStats() const {
  StoreStats stats;
  stats.retries_attempted = stats_retries_attempted_.load();
  stats.retries_exhausted = stats_retries_exhausted_.load();
  stats.quarantines = stats_quarantines_.load();
  stats.recovered_temps = stats_recovered_temps_.load();
  stats.checkpoints_written = stats_checkpoints_written_.load();
  stats.checkpoints_restored = stats_checkpoints_restored_.load();
  stats.wal_appends = stats_wal_appends_.load();
  stats.wal_records_appended = stats_wal_records_appended_.load();
  stats.wal_tails_truncated = stats_wal_tails_truncated_.load();
  return stats;
}

Result<RecoveryReport> SampleStore::Recover(
    const std::vector<PartitionKey>& expected) {
  RecoveryReport report;
  for (const PartitionKey& key : expected) {
    if (!Get(key).ok()) report.missing_partitions.push_back(key);
  }
  return report;
}

Result<std::vector<PartitionSample>> SampleStore::GetMany(
    const std::vector<PartitionKey>& keys, ThreadPool* pool) const {
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  auto fetch_one = [&](size_t i) -> Result<PartitionSample> {
    // Prefetch-task site: a fault here models a fetch task dying before it
    // reaches the store (scheduler/pool-level failure). The whole GetMany
    // must fail — never a partial vector.
    if (injector != nullptr &&
        injector->Next(kFaultSiteGetManyTask) == FaultKind::kIOError) {
      return Status::IOError("injected prefetch-task fault");
    }
    return Get(keys[i]);
  };

  std::vector<PartitionSample> out(keys.size());
  if (pool == nullptr || keys.size() < 2) {
    for (size_t i = 0; i < keys.size(); ++i) {
      SAMPWH_ASSIGN_OR_RETURN(out[i], fetch_one(i));
    }
    return out;
  }
  // One task per key with private completion tracking — never
  // ThreadPool::Wait, which would also wait on unrelated work sharing the
  // pool (and deadlock if called from a pool task).
  std::vector<Status> statuses(keys.size(), Status::OK());
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = keys.size();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    tasks.push_back([&, i] {
      Result<PartitionSample> r = fetch_one(i);
      if (r.ok()) {
        out[i] = std::move(r).value();
      } else {
        statuses[i] = r.status();
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  pool->SubmitBatch(std::move(tasks));
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  for (const Status& status : statuses) SAMPWH_RETURN_IF_ERROR(status);
  return out;
}

Status InMemorySampleStore::Put(const PartitionKey& key,
                                const PartitionSample& sample) {
  SAMPWH_RETURN_IF_ERROR(sample.Validate());
  std::string bytes = SerializeSample(sample);
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    const FaultKind fault = injector != nullptr
                                ? injector->Next(kFaultSitePutWrite)
                                : FaultKind::kNone;
    switch (fault) {
      case FaultKind::kTornWrite: {
        // The in-memory analogue of a tear: the stored blob is a prefix of
        // the enveloped bytes; the CRC layer catches it on read.
        const size_t keep = injector->TornPrefixLength(bytes.size());
        std::lock_guard<std::mutex> lock(mu_);
        samples_[key] = bytes.substr(0, keep);
        return Status::IOError("injected crash: torn write");
      }
      case FaultKind::kCrashBeforeRename:
        // Crash before publication: nothing was stored.
        return Status::IOError("injected crash before publish");
      case FaultKind::kIOError:
        if (attempt >= policy.max_attempts) {
          NoteRetryExhausted();
          return Status::IOError("injected transient write fault");
        }
        NoteRetryAttempted();
        SleepBackoff(backoff);
        backoff *= 2;
        continue;
      default: {
        std::lock_guard<std::mutex> lock(mu_);
        samples_[key] = std::move(bytes);
        return Status::OK();
      }
    }
  }
}

Result<PartitionSample> InMemorySampleStore::Get(
    const PartitionKey& key) const {
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::chrono::microseconds backoff = policy.initial_backoff;
  // Copy the serialized form under the lock, deserialize outside it, so
  // concurrent GetMany fetches overlap the (dominant) decode work.
  std::string bytes;
  for (int attempt = 1;; ++attempt) {
    const FaultKind fault = injector != nullptr
                                ? injector->Next(kFaultSiteGetRead)
                                : FaultKind::kNone;
    if (fault == FaultKind::kIOError) {
      if (attempt >= policy.max_attempts) {
        NoteRetryExhausted();
        return Status::IOError("injected transient read fault");
      }
      NoteRetryAttempted();
      SleepBackoff(backoff);
      backoff *= 2;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = samples_.find(key);
      if (it == samples_.end()) {
        return Status::NotFound("no sample for partition");
      }
      bytes = it->second;
    }
    if (fault == FaultKind::kCorruptRead && !bytes.empty()) {
      bytes[injector->CorruptByteIndex(bytes.size())] ^= 0x01;
    }
    break;
  }
  return DeserializeSample(bytes);
}

Result<uint64_t> InMemorySampleStore::ContentDigest(
    const PartitionKey& key) const {
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = samples_.find(key);
    if (it == samples_.end()) {
      return Status::NotFound("no sample for partition");
    }
    bytes = it->second;
  }
  return DigestStoredSample(bytes);
}

Status InMemorySampleStore::Delete(const PartitionKey& key) {
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    if (injector != nullptr &&
        injector->Next(kFaultSiteDelete) == FaultKind::kIOError) {
      if (attempt >= policy.max_attempts) {
        NoteRetryExhausted();
        return Status::IOError("injected transient delete fault");
      }
      NoteRetryAttempted();
      SleepBackoff(backoff);
      backoff *= 2;
      continue;
    }
    break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.erase(key) == 0) {
    return Status::NotFound("no sample for partition");
  }
  return Status::OK();
}

Result<std::vector<PartitionId>> InMemorySampleStore::List(
    const DatasetId& dataset) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PartitionId> ids;
  for (auto it = samples_.lower_bound(PartitionKey{dataset, 0});
       it != samples_.end() && it->first.dataset == dataset; ++it) {
    ids.push_back(it->first.partition);
  }
  return ids;
}

uint64_t InMemorySampleStore::TotalStoredBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, bytes] : samples_) total += bytes.size();
  return total;
}

Result<RecoveryReport> InMemorySampleStore::Recover(
    const std::vector<PartitionKey>& expected) {
  RecoveryReport report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = samples_.begin(); it != samples_.end();) {
      ++report.scanned;
      if (!VerifySampleBytes(it->second).ok()) {
        report.quarantined.push_back(it->first.dataset + "." +
                                     std::to_string(it->first.partition));
        NoteQuarantine();
        it = samples_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [dataset, gens] : checkpoints_) {
      for (auto it = gens.begin(); it != gens.end();) {
        ++report.scanned;
        if (!VerifyCheckpointBytes(it->second).ok()) {
          report.quarantined_checkpoints.push_back(
              dataset + "." + std::to_string(it->first) + ".ckpt");
          NoteQuarantine();
          it = gens.erase(it);
        } else {
          ++it;
        }
      }
    }
    // WALs: a journal whose snapshot generation did not survive is an
    // orphan (its records resolve against nothing); surviving journals are
    // deep-verified and truncated at the first bad record.
    for (auto ws = wals_.begin(); ws != wals_.end();) {
      const auto cs = checkpoints_.find(ws->first);
      for (auto it = ws->second.begin(); it != ws->second.end();) {
        ++report.scanned;
        const std::string name =
            ws->first + "." + std::to_string(it->first) + ".wal";
        if (cs == checkpoints_.end() ||
            cs->second.find(it->first) == cs->second.end()) {
          report.orphaned_wals.push_back(name);
          NoteQuarantine();
          it = ws->second.erase(it);
          continue;
        }
        const size_t valid = DeepVerifiedWalPrefix(it->second);
        if (valid != it->second.size()) {
          it->second.resize(valid);
          report.truncated_wal_tails.push_back(name);
          NoteWalTailTruncated();
        }
        ++it;
      }
      ws = ws->second.empty() ? wals_.erase(ws) : std::next(ws);
    }
  }
  for (const PartitionKey& key : expected) {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.find(key) == samples_.end()) {
      report.missing_partitions.push_back(key);
    }
  }
  return report;
}

Status InMemorySampleStore::PutCheckpoint(const DatasetId& dataset,
                                          std::string_view payload) {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(dataset));
  std::string bytes = WrapSampleEnvelope(payload);
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    const FaultKind fault = injector != nullptr
                                ? injector->Next(kFaultSiteCheckpointWrite)
                                : FaultKind::kNone;
    switch (fault) {
      case FaultKind::kTornWrite: {
        const size_t keep = injector->TornPrefixLength(bytes.size());
        std::lock_guard<std::mutex> lock(mu_);
        auto& gens = checkpoints_[dataset];
        const uint64_t gen = gens.empty() ? 1 : gens.rbegin()->first + 1;
        gens[gen] = bytes.substr(0, keep);
        return Status::IOError("injected crash: torn checkpoint write");
      }
      case FaultKind::kCrashBeforeRename:
        return Status::IOError("injected crash before checkpoint publish");
      case FaultKind::kIOError:
        if (attempt >= policy.max_attempts) {
          NoteRetryExhausted();
          return Status::IOError("injected transient checkpoint-write fault");
        }
        NoteRetryAttempted();
        SleepBackoff(backoff);
        backoff *= 2;
        continue;
      default: {
        std::lock_guard<std::mutex> lock(mu_);
        auto& gens = checkpoints_[dataset];
        const uint64_t gen = gens.empty() ? 1 : gens.rbegin()->first + 1;
        gens[gen] = std::move(bytes);
        // A fresh generation starts with an empty journal; journals of
        // pruned generations go with their snapshots.
        auto& wals = wals_[dataset];
        wals.erase(gen);
        while (gens.size() > 2) {
          wals.erase(gens.begin()->first);
          gens.erase(gens.begin());
        }
        NoteCheckpointWritten();
        return Status::OK();
      }
    }
  }
}

Result<std::string> InMemorySampleStore::GetCheckpoint(
    const DatasetId& dataset) const {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(dataset));
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    if (injector != nullptr &&
        injector->Next(kFaultSiteCheckpointRead) == FaultKind::kIOError) {
      if (attempt >= policy.max_attempts) {
        NoteRetryExhausted();
        return Status::IOError("injected transient checkpoint-read fault");
      }
      NoteRetryAttempted();
      SleepBackoff(backoff);
      backoff *= 2;
      continue;
    }
    break;
  }
  // Newest generation first; a corrupt one is dropped (the in-memory
  // quarantine) and the previous generation served instead.
  std::lock_guard<std::mutex> lock(mu_);
  const auto ds = checkpoints_.find(dataset);
  if (ds != checkpoints_.end()) {
    auto& gens = ds->second;
    while (!gens.empty()) {
      const auto newest = std::prev(gens.end());
      std::string_view payload;
      if (UnwrapSampleEnvelope(newest->second, &payload).ok()) {
        NoteCheckpointRestored();
        return std::string(payload);
      }
      NoteQuarantine();
      DropWalLocked(dataset, newest->first);
      gens.erase(newest);
    }
  }
  return Status::NotFound("no checkpoint for dataset");
}

void InMemorySampleStore::DropWalLocked(const DatasetId& dataset,
                                        uint64_t generation) const {
  const auto ws = wals_.find(dataset);
  if (ws == wals_.end()) return;
  ws->second.erase(generation);
  if (ws->second.empty()) wals_.erase(ws);
}

Status InMemorySampleStore::AppendCheckpointDeltas(
    const DatasetId& key, const std::vector<std::string>& records) {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(key));
  if (records.empty()) return Status::OK();
  const std::string batch = FrameWalBatch(records);
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const FaultKind fault = injector != nullptr
                              ? injector->Next(kFaultSiteWalAppend)
                              : FaultKind::kNone;
  std::lock_guard<std::mutex> lock(mu_);
  const auto ds = checkpoints_.find(key);
  if (ds == checkpoints_.end() || ds->second.empty()) {
    return Status::FailedPrecondition(
        "no snapshot generation to append WAL records to");
  }
  const uint64_t gen = ds->second.rbegin()->first;
  switch (fault) {
    case FaultKind::kTornWrite: {
      // Torn group commit: a prefix of the batch reaches the journal. Not
      // retried — the per-record CRC framing drops the tail on read.
      const size_t keep = injector->TornPrefixLength(batch.size());
      wals_[key][gen] += batch.substr(0, keep);
      return Status::IOError("injected crash: torn WAL append");
    }
    case FaultKind::kIOError:
    case FaultKind::kCrashBeforeRename:
      return Status::IOError("injected WAL append fault");
    default:
      wals_[key][gen] += batch;
      NoteWalAppend(records.size());
      return Status::OK();
  }
}

Result<CheckpointChain> InMemorySampleStore::GetCheckpointChain(
    const DatasetId& key) const {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(key));
  std::lock_guard<std::mutex> lock(mu_);
  const auto ds = checkpoints_.find(key);
  if (ds != checkpoints_.end()) {
    auto& gens = ds->second;
    while (!gens.empty()) {
      const auto newest = std::prev(gens.end());
      std::string_view payload;
      if (UnwrapSampleEnvelope(newest->second, &payload).ok()) {
        CheckpointChain chain;
        chain.generation = newest->first;
        chain.snapshot = std::string(payload);
        const auto ws = wals_.find(key);
        if (ws != wals_.end()) {
          const auto wal = ws->second.find(newest->first);
          if (wal != ws->second.end()) {
            CheckpointWalParse parse = ParseCheckpointWal(wal->second);
            chain.deltas = std::move(parse.records);
            chain.torn_tail = parse.torn_tail;
          }
        }
        NoteCheckpointRestored();
        return chain;
      }
      NoteQuarantine();
      DropWalLocked(key, newest->first);
      gens.erase(newest);
    }
  }
  return Status::NotFound("no checkpoint for dataset");
}

Status InMemorySampleStore::DeleteCheckpoint(const DatasetId& dataset) {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(dataset));
  std::lock_guard<std::mutex> lock(mu_);
  wals_.erase(dataset);
  if (checkpoints_.erase(dataset) == 0) {
    return Status::NotFound("no checkpoint for dataset");
  }
  return Status::OK();
}

Result<std::vector<DatasetId>> InMemorySampleStore::ListCheckpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DatasetId> datasets;
  for (const auto& [dataset, gens] : checkpoints_) {
    if (!gens.empty()) datasets.push_back(dataset);
  }
  return datasets;
}

FileSampleStore::FileSampleStore(std::string directory)
    : directory_(std::move(directory)) {}

Result<std::unique_ptr<FileSampleStore>> FileSampleStore::Open(
    const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create sample directory " + directory +
                           ": " + ec.message());
  }
  return std::unique_ptr<FileSampleStore>(new FileSampleStore(directory));
}

std::string FileSampleStore::PathFor(const PartitionKey& key) const {
  return directory_ + "/" + key.dataset + "." +
         std::to_string(key.partition) + ".sample";
}

std::string FileSampleStore::CheckpointPathFor(const DatasetId& dataset,
                                               uint64_t generation) const {
  return directory_ + "/" + dataset + "." + std::to_string(generation) +
         ".ckpt";
}

std::string FileSampleStore::WalPathFor(const DatasetId& dataset,
                                        uint64_t generation) const {
  return directory_ + "/" + dataset + "." + std::to_string(generation) +
         ".wal";
}

size_t FileSampleStore::StripeIndexForTesting(const PartitionKey& key) {
  return PartitionKeyHash{}(key) % kLockStripes;
}

std::mutex& FileSampleStore::StripeFor(const PartitionKey& key) const {
  return stripes_[PartitionKeyHash{}(key) % kLockStripes];
}

void FileSampleStore::SetReadHookForTesting(
    std::function<void(const PartitionKey&)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  read_hook_ = std::move(hook);
}

Status FileSampleStore::WriteFileWithFaults(const std::string& site,
                                            const std::string& path,
                                            const std::string& bytes) {
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    const FaultKind fault = injector != nullptr ? injector->Next(site)
                                                : FaultKind::kNone;
    Status status;
    switch (fault) {
      case FaultKind::kTornWrite: {
        // Simulated power loss after the rename: the destination holds a
        // prefix of the bytes. Not retried — the tear must stay for
        // Recover() to find.
        const size_t keep = injector->TornPrefixLength(bytes.size());
        WriteFileAtomic(path, std::string_view(bytes).substr(0, keep));
        return Status::IOError("injected crash: torn write of " + path);
      }
      case FaultKind::kCrashBeforeRename: {
        // Simulated crash between the temp write and its rename: the temp
        // file is orphaned, the destination untouched. Not retried.
        const std::string tmp = path + ".tmp";
        std::FILE* f = std::fopen(tmp.c_str(), "wb");
        if (f != nullptr) {
          std::fwrite(bytes.data(), 1, bytes.size(), f);
          std::fclose(f);
        }
        return Status::IOError("injected crash before rename of " + path);
      }
      case FaultKind::kIOError:
        status = Status::IOError("injected transient write fault");
        break;
      default:
        status = WriteFileAtomic(path, bytes);
        break;
    }
    if (status.ok() || !status.IsIOError()) {
      return status;
    }
    if (attempt >= policy.max_attempts) {
      NoteRetryExhausted();
      return status;
    }
    NoteRetryAttempted();
    SleepBackoff(backoff);
    backoff *= 2;
  }
}

void FileSampleStore::QuarantineFile(const PartitionKey& key,
                                     const std::string& path) const {
  std::lock_guard<std::mutex> lock(StripeFor(key));
  std::error_code ec;
  std::filesystem::rename(path, QuarantineDestination(path), ec);
  // Best effort: if the rename races a concurrent replace or delete, the
  // corrupt bytes are already gone.
  if (!ec) NoteQuarantine();
}

void FileSampleStore::QuarantineCheckpointPath(const std::string& path) const {
  std::error_code ec;
  std::filesystem::rename(path, QuarantineDestination(path), ec);
  if (!ec) NoteQuarantine();
}

Status FileSampleStore::Put(const PartitionKey& key,
                            const PartitionSample& sample) {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(key.dataset));
  SAMPWH_RETURN_IF_ERROR(sample.Validate());
  const std::string bytes = SerializeSample(sample);
  std::lock_guard<std::mutex> lock(StripeFor(key));
  return WriteFileWithFaults(kFaultSitePutWrite, PathFor(key), bytes);
}

Result<PartitionSample> FileSampleStore::Get(const PartitionKey& key) const {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(key.dataset));
  std::function<void(const PartitionKey&)> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = read_hook_;
  }
  const std::string path = PathFor(key);
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(StripeFor(key));
    if (hook) hook(key);
    std::chrono::microseconds backoff = policy.initial_backoff;
    for (int attempt = 1;; ++attempt) {
      const FaultKind fault = injector != nullptr
                                  ? injector->Next(kFaultSiteGetRead)
                                  : FaultKind::kNone;
      Status status = fault == FaultKind::kIOError
                          ? Status::IOError("injected transient read fault")
                          : ReadFile(path, &bytes);
      if (status.ok() && fault == FaultKind::kCorruptRead && !bytes.empty()) {
        bytes[injector->CorruptByteIndex(bytes.size())] ^= 0x01;
      }
      if (status.ok()) break;
      if (!status.IsIOError()) return status;
      if (attempt >= policy.max_attempts) {
        NoteRetryExhausted();
        return status;
      }
      NoteRetryAttempted();
      SleepBackoff(backoff);
      backoff *= 2;
    }
  }
  Result<PartitionSample> decoded = DeserializeSample(bytes);
  if (!decoded.ok()) {
    // Detected tear/corruption: move the damaged file aside so it is never
    // re-served (and a fresh Put of the key starts clean), keep it on disk
    // for inspection.
    QuarantineFile(key, path);
    return decoded.status();
  }
  return decoded;
}

Result<uint64_t> FileSampleStore::ContentDigest(const PartitionKey& key) const {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(key.dataset));
  const std::string path = PathFor(key);
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(StripeFor(key));
    SAMPWH_RETURN_IF_ERROR(ReadFile(path, &bytes));
  }
  Result<uint64_t> digest = DigestStoredSample(bytes);
  if (!digest.ok() && digest.status().IsCorruption()) {
    // Same policy as Get: damaged bytes are preserved aside, never
    // re-served, and the key reads as missing so repair can re-replicate.
    QuarantineFile(key, path);
  }
  return digest;
}

Status FileSampleStore::Delete(const PartitionKey& key) {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(key.dataset));
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::chrono::microseconds backoff = policy.initial_backoff;
  std::lock_guard<std::mutex> lock(StripeFor(key));
  for (int attempt = 1;; ++attempt) {
    if (injector != nullptr &&
        injector->Next(kFaultSiteDelete) == FaultKind::kIOError) {
      if (attempt >= policy.max_attempts) {
        NoteRetryExhausted();
        return Status::IOError("injected transient delete fault");
      }
      NoteRetryAttempted();
      SleepBackoff(backoff);
      backoff *= 2;
      continue;
    }
    break;
  }
  std::error_code ec;
  if (!std::filesystem::remove(PathFor(key), ec) || ec) {
    return Status::NotFound("no sample file for partition");
  }
  return Status::OK();
}

Result<std::vector<PartitionId>> FileSampleStore::List(
    const DatasetId& dataset) const {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(dataset));
  // Lock-free: the directory scan relies on the filesystem's own atomicity
  // (atomic-replace Puts and unlink Deletes), so a List never blocks — or
  // is blocked by — reads and writes of individual samples.
  std::vector<PartitionId> ids;
  const std::string prefix = dataset + ".";
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const size_t id_begin = prefix.size();
    const size_t id_end = name.find(".sample", id_begin);
    if (id_end == std::string::npos ||
        name.size() != id_end + 7 /* strlen(".sample") */) {
      continue;
    }
    const std::string id_str = name.substr(id_begin, id_end - id_begin);
    if (id_str.empty() ||
        id_str.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    ids.push_back(std::stoull(id_str));
  }
  if (ec) return Status::IOError("cannot list " + directory_);
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint64_t FileSampleStore::TotalStoredBytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!IsSampleFileName(name)) continue;
    const auto size = entry.file_size(ec);
    if (!ec) total += size;
  }
  return total;
}

Result<RecoveryReport> FileSampleStore::Recover(
    const std::vector<PartitionKey>& expected) {
  RecoveryReport report;
  std::vector<std::filesystem::path> temps;
  std::vector<std::filesystem::path> samples;
  std::vector<std::filesystem::path> checkpoints;
  std::vector<std::filesystem::path> wals;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    DatasetId ckpt_dataset;
    uint64_t ckpt_gen;
    if (HasSuffix(name, ".tmp")) {
      temps.push_back(entry.path());
    } else if (IsSampleFileName(name)) {
      samples.push_back(entry.path());
    } else if (ParseCheckpointName(name, &ckpt_dataset, &ckpt_gen)) {
      checkpoints.push_back(entry.path());
    } else if (ParseWalName(name, &ckpt_dataset, &ckpt_gen)) {
      wals.push_back(entry.path());
    }
  }
  if (ec) {
    return Status::IOError("cannot scan " + directory_ + ": " + ec.message());
  }
  // Orphan temps are leftovers of writes that crashed before their rename;
  // the destination (if any) is still the last fully published version.
  for (const auto& tmp : temps) {
    std::error_code remove_ec;
    std::filesystem::remove(tmp, remove_ec);
    if (!remove_ec) {
      report.removed_temps.push_back(tmp.filename().string());
      NoteRecoveredTemp();
    }
  }
  for (const auto& path : samples) {
    ++report.scanned;
    std::string bytes;
    Status status = ReadFile(path.string(), &bytes);
    if (status.ok()) status = VerifySampleBytes(bytes);
    if (!status.ok()) {
      std::error_code rename_ec;
      std::filesystem::rename(path, QuarantineDestination(path.string()),
                              rename_ec);
      report.quarantined.push_back(path.filename().string());
      if (!rename_ec) NoteQuarantine();
    }
  }
  // Checkpoints get the FULL structural check (record + embedded sampler
  // state + pending sample): resume must never begin decoding a checkpoint
  // that cannot be loaded end to end. Surviving stems anchor the WAL pass
  // below.
  std::set<std::string> live_ckpt_stems;
  for (const auto& path : checkpoints) {
    ++report.scanned;
    const std::string name = path.filename().string();
    std::string bytes;
    Status status = ReadFile(path.string(), &bytes);
    if (status.ok()) status = VerifyCheckpointBytes(bytes);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(ckpt_mu_);
      QuarantineCheckpointPath(path.string());
      newest_generation_.clear();
      report.quarantined_checkpoints.push_back(name);
    } else {
      live_ckpt_stems.insert(name.substr(0, name.size() - 5 /* ".ckpt" */));
    }
  }
  // WALs: a journal whose snapshot did not survive is an orphan (its
  // records resolve against nothing) and is quarantined whole; surviving
  // journals are deep-verified record by record and truncated at the first
  // record that fails — a torn group commit never hides behind the tear.
  for (const auto& path : wals) {
    ++report.scanned;
    const std::string name = path.filename().string();
    const std::string stem = name.substr(0, name.size() - 4 /* ".wal" */);
    std::string bytes;
    const bool readable = ReadFile(path.string(), &bytes).ok();
    if (live_ckpt_stems.find(stem) == live_ckpt_stems.end() || !readable) {
      std::lock_guard<std::mutex> lock(ckpt_mu_);
      QuarantineCheckpointPath(path.string());
      report.orphaned_wals.push_back(name);
      continue;
    }
    const size_t valid = DeepVerifiedWalPrefix(bytes);
    if (valid != bytes.size()) {
      std::lock_guard<std::mutex> lock(ckpt_mu_);
      WriteFileAtomic(path.string(), std::string_view(bytes).substr(0, valid));
      report.truncated_wal_tails.push_back(name);
      NoteWalTailTruncated();
    }
  }
  for (const PartitionKey& key : expected) {
    std::error_code exists_ec;
    if (!std::filesystem::exists(PathFor(key), exists_ec)) {
      report.missing_partitions.push_back(key);
    }
  }
  return report;
}

std::vector<uint64_t> FileSampleStore::CheckpointGenerations(
    const DatasetId& dataset) const {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    DatasetId parsed;
    uint64_t gen;
    if (ParseCheckpointName(entry.path().filename().string(), &parsed, &gen) &&
        parsed == dataset) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

Status FileSampleStore::PutCheckpoint(const DatasetId& dataset,
                                      std::string_view payload) {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(dataset));
  const std::string bytes = WrapSampleEnvelope(payload);
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  const std::vector<uint64_t> gens = CheckpointGenerations(dataset);
  const uint64_t next_gen = gens.empty() ? 1 : gens.back() + 1;
  Status write = WriteFileWithFaults(
      kFaultSiteCheckpointWrite, CheckpointPathFor(dataset, next_gen), bytes);
  if (!write.ok()) {
    // A torn write may have published a damaged newest generation; never
    // let a cached entry route WAL appends at it.
    newest_generation_.erase(dataset);
    return write;
  }
  // The new generation starts with an empty journal: drop stale bytes a
  // quarantined ancestor of the same number may have left behind.
  std::error_code wal_ec;
  std::filesystem::remove(WalPathFor(dataset, next_gen), wal_ec);
  // Keep the newest two generations: the one just written plus one
  // fallback in case the next write tears. Pruned snapshots take their
  // journals with them.
  for (size_t i = 0; i + 1 < gens.size(); ++i) {
    std::error_code remove_ec;
    std::filesystem::remove(CheckpointPathFor(dataset, gens[i]), remove_ec);
    std::filesystem::remove(WalPathFor(dataset, gens[i]), remove_ec);
  }
  newest_generation_[dataset] = next_gen;
  NoteCheckpointWritten();
  return Status::OK();
}

Result<std::string> FileSampleStore::GetCheckpoint(
    const DatasetId& dataset) const {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(dataset));
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  std::vector<uint64_t> gens = CheckpointGenerations(dataset);
  // Newest generation first; a generation that fails envelope verification
  // is quarantined and the previous one tried.
  while (!gens.empty()) {
    const uint64_t gen = gens.back();
    const std::string path = CheckpointPathFor(dataset, gen);
    gens.pop_back();
    std::string bytes;
    std::chrono::microseconds backoff = policy.initial_backoff;
    Status status;
    for (int attempt = 1;; ++attempt) {
      const FaultKind fault = injector != nullptr
                                  ? injector->Next(kFaultSiteCheckpointRead)
                                  : FaultKind::kNone;
      status = fault == FaultKind::kIOError
                   ? Status::IOError("injected transient checkpoint read")
                   : ReadFile(path, &bytes);
      if (status.ok() && fault == FaultKind::kCorruptRead && !bytes.empty()) {
        bytes[injector->CorruptByteIndex(bytes.size())] ^= 0x01;
      }
      if (status.ok() || !status.IsIOError()) break;
      if (attempt >= policy.max_attempts) {
        NoteRetryExhausted();
        break;
      }
      NoteRetryAttempted();
      SleepBackoff(backoff);
      backoff *= 2;
    }
    if (status.IsIOError()) return status;
    if (!status.ok()) continue;  // vanished between list and read
    std::string_view payload;
    if (UnwrapSampleEnvelope(bytes, &payload).ok()) {
      NoteCheckpointRestored();
      return std::string(payload);
    }
    QuarantineCheckpointPath(path);
    QuarantineCheckpointPath(WalPathFor(dataset, gen));
    newest_generation_.erase(dataset);
  }
  return Status::NotFound("no checkpoint for dataset");
}

Status FileSampleStore::AppendCheckpointDeltas(
    const DatasetId& key, const std::vector<std::string>& records) {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(key));
  if (records.empty()) return Status::OK();
  const std::string batch = FrameWalBatch(records);
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  uint64_t gen;
  const auto cached = newest_generation_.find(key);
  if (cached != newest_generation_.end()) {
    gen = cached->second;
  } else {
    const std::vector<uint64_t> gens = CheckpointGenerations(key);
    if (gens.empty()) {
      return Status::FailedPrecondition(
          "no snapshot generation to append WAL records to");
    }
    gen = gens.back();
    newest_generation_[key] = gen;
  }
  const std::string path = WalPathFor(key, gen);
  const FaultKind fault = injector != nullptr
                              ? injector->Next(kFaultSiteWalAppend)
                              : FaultKind::kNone;
  switch (fault) {
    case FaultKind::kTornWrite: {
      // Torn group commit: a prefix of the batch reaches disk. Not retried
      // — the tear stays for the CRC framing to drop on read.
      const size_t keep = injector->TornPrefixLength(batch.size());
      AppendBytesToFile(path, std::string_view(batch).substr(0, keep));
      return Status::IOError("injected crash: torn WAL append to " + path);
    }
    case FaultKind::kIOError:
    case FaultKind::kCrashBeforeRename:
      return Status::IOError("injected WAL append fault");
    default:
      break;
  }
  SAMPWH_RETURN_IF_ERROR(AppendBytesToFile(path, batch));
  NoteWalAppend(records.size());
  return Status::OK();
}

Result<CheckpointChain> FileSampleStore::GetCheckpointChain(
    const DatasetId& key) const {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(key));
  const std::shared_ptr<FaultInjector> injector = fault_injector();
  const RetryPolicy policy = retry_policy();
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  std::vector<uint64_t> gens = CheckpointGenerations(key);
  while (!gens.empty()) {
    const uint64_t gen = gens.back();
    const std::string path = CheckpointPathFor(key, gen);
    gens.pop_back();
    std::string bytes;
    std::chrono::microseconds backoff = policy.initial_backoff;
    Status status;
    for (int attempt = 1;; ++attempt) {
      const FaultKind fault = injector != nullptr
                                  ? injector->Next(kFaultSiteCheckpointRead)
                                  : FaultKind::kNone;
      status = fault == FaultKind::kIOError
                   ? Status::IOError("injected transient checkpoint read")
                   : ReadFile(path, &bytes);
      if (status.ok() && fault == FaultKind::kCorruptRead && !bytes.empty()) {
        bytes[injector->CorruptByteIndex(bytes.size())] ^= 0x01;
      }
      if (status.ok() || !status.IsIOError()) break;
      if (attempt >= policy.max_attempts) {
        NoteRetryExhausted();
        break;
      }
      NoteRetryAttempted();
      SleepBackoff(backoff);
      backoff *= 2;
    }
    if (status.IsIOError()) return status;
    if (!status.ok()) continue;  // vanished between list and read
    std::string_view payload;
    if (!UnwrapSampleEnvelope(bytes, &payload).ok()) {
      QuarantineCheckpointPath(path);
      QuarantineCheckpointPath(WalPathFor(key, gen));
      newest_generation_.erase(key);
      continue;
    }
    CheckpointChain chain;
    chain.generation = gen;
    chain.snapshot = std::string(payload);
    // Absent WAL = empty journal (a fresh generation); a read error is
    // treated the same — the snapshot alone is still a valid resume point,
    // deltas only refine it.
    std::string wal_bytes;
    if (ReadFile(WalPathFor(key, gen), &wal_bytes).ok()) {
      CheckpointWalParse parse = ParseCheckpointWal(wal_bytes);
      chain.deltas = std::move(parse.records);
      chain.torn_tail = parse.torn_tail;
    }
    NoteCheckpointRestored();
    return chain;
  }
  return Status::NotFound("no checkpoint for dataset");
}

Status FileSampleStore::DeleteCheckpoint(const DatasetId& dataset) {
  SAMPWH_RETURN_IF_ERROR(ValidateCheckpointKey(dataset));
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  newest_generation_.erase(dataset);
  const std::vector<uint64_t> gens = CheckpointGenerations(dataset);
  if (gens.empty()) return Status::NotFound("no checkpoint for dataset");
  for (const uint64_t gen : gens) {
    std::error_code remove_ec;
    std::filesystem::remove(CheckpointPathFor(dataset, gen), remove_ec);
    std::filesystem::remove(WalPathFor(dataset, gen), remove_ec);
  }
  return Status::OK();
}

Result<std::vector<DatasetId>> FileSampleStore::ListCheckpoints() const {
  std::vector<DatasetId> datasets;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    DatasetId dataset;
    uint64_t gen;
    if (ParseCheckpointName(entry.path().filename().string(), &dataset,
                            &gen)) {
      datasets.push_back(dataset);
    }
  }
  if (ec) return Status::IOError("cannot list " + directory_);
  std::sort(datasets.begin(), datasets.end());
  datasets.erase(std::unique(datasets.begin(), datasets.end()),
                 datasets.end());
  return datasets;
}

}  // namespace sampwh
