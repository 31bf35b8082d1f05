#include "src/warehouse/sample_store.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <set>
#include <thread>
#include <utility>

#include "src/util/serialization.h"

namespace sampwh {

namespace {

std::string SerializeSample(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return EncodeFrame(writer.buffer());
}

// Decodes the stored sample file read from `path`. A payload that does not
// decode is Corruption like a bad frame; a file of an older format stays
// FailedPrecondition (DecodeStoredFile).
Result<PartitionSample> DeserializeSample(const std::string& bytes,
                                          const std::string& path) {
  std::string_view payload;
  SAMPWH_RETURN_IF_ERROR(DecodeStoredFile(bytes, path, &payload));
  Result<PartitionSample> decoded = PartitionSample::DeserializeWhole(payload);
  if (!decoded.ok()) {
    return Status::Corruption("corrupt sample payload: " +
                              decoded.status().message());
  }
  return decoded;
}

// Full verification for recovery scans: frame + decode + structural
// invariants.
Status VerifySampleBytes(const std::string& bytes, const std::string& path) {
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample sample,
                          DeserializeSample(bytes, path));
  return sample.Validate();
}

bool HasSuffix(const std::string& name, std::string_view suffix) {
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

constexpr std::string_view kSampleSuffix = ".sample";
constexpr std::string_view kCheckpointSuffix = ".ckpt";
constexpr std::string_view kWalSuffix = ".wal";

// Parses "<dataset>.<generation><suffix>" (a checkpoint snapshot or its
// WAL). Dataset ids may themselves contain dots, so the generation is
// always the LAST dot-separated segment before the suffix; it must be
// purely numeric.
bool ParseGenerationName(const std::string& name, std::string_view suffix,
                         DatasetId* dataset, uint64_t* generation) {
  if (!HasSuffix(name, suffix)) return false;
  const std::string stem = name.substr(0, name.size() - suffix.size());
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

// Builds one framed batch from delta record payloads.
std::string FrameWalBatch(const std::vector<std::string>& records) {
  std::string batch;
  for (const std::string& record : records) {
    AppendFrame(&batch, record);
  }
  return batch;
}

// Length of the prefix of the WAL `wal`, read from `path`, covering records
// that pass DEEP verification (frame + CRC + record decode + embedded
// checkpoint decode). Recovery truncates a WAL to this length. A record of
// an older layout is FailedPrecondition naming `path`, never a tail to cut.
Result<size_t> DeepVerifiedWalPrefix(std::string_view wal,
                                     const std::string& path) {
  const CheckpointWalParse parse = ParseCheckpointWal(wal);
  size_t valid = 0;
  for (const std::string& record : parse.records) {
    const Status verified = VerifyCheckpointDeltaPayload(record);
    if (verified.IsFailedPrecondition()) {
      return NameFileInRefusal(verified, path);
    }
    if (!verified.ok()) break;
    valid += kFrameHeaderBytes + record.size();
  }
  return valid;
}

// Full verification for recovery scans of checkpoint bytes: frame +
// record decode + embedded sampler-state decode.
Status VerifyCheckpointBytes(const std::string& bytes,
                             const std::string& path) {
  std::string_view payload;
  SAMPWH_RETURN_IF_ERROR(DecodeStoredFile(bytes, path, &payload));
  return NameFileInRefusal(VerifyCheckpointPayload(payload), path);
}

void SleepBackoff(std::chrono::microseconds backoff) {
  if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
}

}  // namespace

std::string QuarantineDestination(const std::string& path, Env* env) {
  std::string dest = path + ".quarantine";
  for (uint64_t n = 1; env->FileExists(dest); ++n) {
    dest = path + ".quarantine." + std::to_string(n);
  }
  return dest;
}

SampleStore::SampleStore(Env* env, std::string directory)
    : env_(env), directory_(std::move(directory)) {}

SampleStore::SampleStore(std::unique_ptr<Env> env, std::string directory)
    : owned_env_(std::move(env)),
      env_(owned_env_.get()),
      directory_(std::move(directory)) {}

FileSampleStore::FileSampleStore(std::string directory)
    : SampleStore(Env::Default(), std::move(directory)) {}

Result<std::unique_ptr<FileSampleStore>> FileSampleStore::Open(
    const std::string& directory) {
  const Status created = Env::Default()->CreateDir(directory);
  if (!created.ok()) {
    return Status::IOError("cannot create sample directory " + directory +
                           ": " + created.message());
  }
  return std::unique_ptr<FileSampleStore>(new FileSampleStore(directory));
}

InMemorySampleStore::InMemorySampleStore()
    : SampleStore(std::make_unique<MemEnv>(), "mem") {}

void SampleStore::SetRetryPolicy(const RetryPolicy& policy) {
  std::lock_guard<std::mutex> lock(config_mu_);
  retry_policy_ = policy;
  if (retry_policy_.max_attempts < 1) retry_policy_.max_attempts = 1;
}

SampleStore::RetryPolicy SampleStore::retry_policy() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return retry_policy_;
}

StoreStats SampleStore::GetStoreStats() const {
  return LoadCounters(counters_, kStoreCounters);
}

std::string SampleStore::PathFor(const PartitionKey& key) const {
  return directory_ + "/" + key.dataset + "." + std::to_string(key.partition) +
         std::string(kSampleSuffix);
}

std::string SampleStore::CheckpointPathFor(const DatasetId& dataset,
                                           uint64_t generation) const {
  return directory_ + "/" + dataset + "." + std::to_string(generation) +
         std::string(kCheckpointSuffix);
}

std::string SampleStore::WalPathFor(const DatasetId& dataset,
                                    uint64_t generation) const {
  return directory_ + "/" + dataset + "." + std::to_string(generation) +
         std::string(kWalSuffix);
}

size_t SampleStore::StripeIndexForTesting(const PartitionKey& key) {
  return PartitionKeyHash{}(key) % kLockStripes;
}

std::mutex& SampleStore::StripeFor(const PartitionKey& key) const {
  return stripes_[StripeIndexForTesting(key)];
}

template <typename Op>
Status SampleStore::Retrying(const Op& op) const {
  Status status = op();
  if (status.ok() || !status.IsIOError()) return status;
  // Read the policy only once a try has failed: the common path takes no
  // lock.
  const RetryPolicy policy = retry_policy();
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (int tries = 1; tries < policy.max_attempts; ++tries) {
    BumpCounter(counters_.retries_attempted);
    SleepBackoff(backoff);
    backoff *= 2;
    status = op();
    if (status.ok() || !status.IsIOError()) return status;
  }
  BumpCounter(counters_.retries_exhausted);
  return status;
}

void SampleStore::Quarantine(const std::string& path) const {
  // Best effort: if the rename races a concurrent replace or delete, the
  // corrupt bytes are already gone.
  if (env_->Rename(path, QuarantineDestination(path, env_)).ok()) {
    BumpCounter(counters_.quarantines);
  }
}

Status SampleStore::Put(const PartitionKey& key,
                        const PartitionSample& sample) {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(key.dataset));
  SAMPWH_RETURN_IF_ERROR(sample.Validate());
  const std::string bytes = SerializeSample(sample);
  std::lock_guard<std::mutex> lock(StripeFor(key));
  const std::string path = PathFor(key);
  return Retrying([&] { return env_->WriteFileAtomic(path, bytes); });
}

Result<PartitionSample> SampleStore::Get(const PartitionKey& key) const {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(key.dataset));
  const std::string path = PathFor(key);
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(StripeFor(key));
    SAMPWH_RETURN_IF_ERROR(
        Retrying([&] { return env_->ReadFile(path, &bytes); }));
  }
  Result<PartitionSample> decoded = DeserializeSample(bytes, path);
  if (decoded.status().IsCorruption()) {
    // Detected tear/corruption: move the damaged file aside so it is never
    // re-served (and a fresh Put of the key starts clean), keep it for
    // inspection. A file of an older format is refused, not moved.
    std::lock_guard<std::mutex> lock(StripeFor(key));
    Quarantine(path);
  }
  return decoded;
}

Result<uint64_t> SampleStore::ContentDigest(const PartitionKey& key) const {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(key.dataset));
  const std::string path = PathFor(key);
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(StripeFor(key));
    SAMPWH_RETURN_IF_ERROR(env_->ReadFile(path, &bytes));
  }
  std::string_view payload;
  const Status framed = DecodeStoredFile(bytes, path, &payload);
  if (framed.IsCorruption()) {
    // Same policy as Get: the key reads as missing so repair can
    // re-replicate it.
    std::lock_guard<std::mutex> lock(StripeFor(key));
    Quarantine(path);
  }
  SAMPWH_RETURN_IF_ERROR(framed);
  return sampwh::ContentDigest(payload);
}

Status SampleStore::Delete(const PartitionKey& key) {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(key.dataset));
  const std::string path = PathFor(key);
  std::lock_guard<std::mutex> lock(StripeFor(key));
  return Retrying([&] { return env_->Remove(path); });
}

Result<std::vector<PartitionId>> SampleStore::List(
    const DatasetId& dataset) const {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(dataset));
  // Lock-free: the listing relies on the Env's own atomicity (atomic
  // replace Puts and unlink Deletes), so a List never blocks — or is
  // blocked by — reads and writes of individual samples.
  const std::string prefix = dataset + ".";
  std::vector<DirEntry> entries;
  SAMPWH_RETURN_IF_ERROR(env_->ListDir(directory_, &entries, prefix));
  std::vector<PartitionId> ids;
  for (const DirEntry& entry : entries) {
    if (entry.name.size() <= prefix.size() + kSampleSuffix.size() ||
        !HasSuffix(entry.name, kSampleSuffix)) {
      continue;
    }
    const std::string id_str =
        entry.name.substr(prefix.size(), entry.name.size() - prefix.size() -
                                             kSampleSuffix.size());
    if (id_str.find_first_not_of("0123456789") != std::string::npos) continue;
    ids.push_back(std::stoull(id_str));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint64_t SampleStore::TotalStoredBytes() const {
  std::vector<DirEntry> entries;
  if (!env_->ListDir(directory_, &entries, "").ok()) return 0;
  uint64_t total = 0;
  for (const DirEntry& entry : entries) {
    if (HasSuffix(entry.name, kSampleSuffix)) total += entry.size;
  }
  return total;
}

Result<RecoveryReport> SampleStore::Recover(
    const std::vector<PartitionKey>& expected) {
  std::vector<DirEntry> entries;
  const Status listed = env_->ListDir(directory_, &entries, "");
  if (!listed.ok()) {
    return Status::IOError("cannot scan " + directory_ + ": " +
                           listed.message());
  }
  RecoveryReport report;
  std::vector<std::string> temps;
  std::vector<std::string> samples;
  std::vector<std::string> checkpoints;
  std::vector<std::string> wals;
  for (DirEntry& entry : entries) {
    DatasetId dataset;
    uint64_t gen;
    if (HasSuffix(entry.name, ".tmp")) {
      temps.push_back(std::move(entry.name));
    } else if (HasSuffix(entry.name, kSampleSuffix)) {
      samples.push_back(std::move(entry.name));
    } else if (ParseGenerationName(entry.name, kCheckpointSuffix, &dataset,
                                   &gen)) {
      checkpoints.push_back(std::move(entry.name));
    } else if (ParseGenerationName(entry.name, kWalSuffix, &dataset, &gen)) {
      wals.push_back(std::move(entry.name));
    }
  }
  // Every sample and snapshot is verified before anything changes: a file
  // of an older format refuses the whole store (FailedPrecondition) and
  // leaves it as it was. Only a verification failure quarantines. A file
  // that vanished after the listing is skipped; a read that still fails
  // after the retries fails the scan, so a transient error never destroys
  // healthy data. Checkpoints get the FULL structural check (record +
  // embedded sampler state): resume must never begin decoding one that
  // cannot be loaded end to end.
  std::vector<std::string> damaged_samples;
  for (const std::string& name : samples) {
    const std::string path = directory_ + "/" + name;
    std::string bytes;
    const Status read = Retrying([&] { return env_->ReadFile(path, &bytes); });
    if (read.IsNotFound()) continue;
    SAMPWH_RETURN_IF_ERROR(read);
    ++report.scanned;
    const Status verified = VerifySampleBytes(bytes, path);
    if (verified.IsFailedPrecondition()) return verified;
    if (!verified.ok()) damaged_samples.push_back(name);
  }
  // Surviving snapshot stems anchor the WAL pass below.
  std::vector<std::string> damaged_checkpoints;
  std::set<std::string> live_ckpt_stems;
  for (const std::string& name : checkpoints) {
    const std::string path = directory_ + "/" + name;
    std::string bytes;
    const Status read = Retrying([&] { return env_->ReadFile(path, &bytes); });
    if (read.IsNotFound()) continue;
    SAMPWH_RETURN_IF_ERROR(read);
    ++report.scanned;
    const Status verified = VerifyCheckpointBytes(bytes, path);
    if (verified.IsFailedPrecondition()) return verified;
    if (verified.ok()) {
      live_ckpt_stems.insert(
          name.substr(0, name.size() - kCheckpointSuffix.size()));
    } else {
      damaged_checkpoints.push_back(name);
    }
  }
  // Orphan temps are leftovers of writes that crashed before their rename;
  // the destination (if any) is still the last fully published version.
  for (std::string& name : temps) {
    if (env_->Remove(directory_ + "/" + name).ok()) {
      report.removed_temps.push_back(std::move(name));
      BumpCounter(counters_.recovered_temps);
    }
  }
  for (std::string& name : damaged_samples) {
    Quarantine(directory_ + "/" + name);
    report.quarantined.push_back(std::move(name));
  }
  for (std::string& name : damaged_checkpoints) {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    Quarantine(directory_ + "/" + name);
    newest_generation_.clear();
    report.quarantined_checkpoints.push_back(std::move(name));
  }
  // WALs: a journal whose snapshot did not survive is an orphan (its
  // records resolve against nothing) and is quarantined whole; surviving
  // journals are deep-verified record by record and truncated at the first
  // record that fails — a torn group commit never hides behind the tear.
  for (const std::string& name : wals) {
    const std::string path = directory_ + "/" + name;
    const std::string stem = name.substr(0, name.size() - kWalSuffix.size());
    if (live_ckpt_stems.find(stem) == live_ckpt_stems.end()) {
      std::lock_guard<std::mutex> lock(ckpt_mu_);
      Quarantine(path);
      report.orphaned_wals.push_back(name);
      continue;
    }
    std::string bytes;
    const Status read = Retrying([&] { return env_->ReadFile(path, &bytes); });
    if (read.IsNotFound()) continue;
    SAMPWH_RETURN_IF_ERROR(read);
    ++report.scanned;
    SAMPWH_ASSIGN_OR_RETURN(const size_t valid,
                            DeepVerifiedWalPrefix(bytes, path));
    if (valid != bytes.size()) {
      std::lock_guard<std::mutex> lock(ckpt_mu_);
      // Appends land behind whatever this leaves, so a tail that could not
      // be cut must fail the scan, never be reported as cut.
      SAMPWH_RETURN_IF_ERROR(Retrying([&] {
        return env_->WriteFileAtomic(path,
                                     std::string_view(bytes).substr(0, valid));
      }));
      report.truncated_wal_tails.push_back(name);
      BumpCounter(counters_.wal_tails_truncated);
    }
  }
  for (const PartitionKey& key : expected) {
    if (!env_->FileExists(PathFor(key))) {
      report.missing_partitions.push_back(key);
    }
  }
  return report;
}

std::vector<uint64_t> SampleStore::CheckpointGenerations(
    const DatasetId& dataset) const {
  std::vector<DirEntry> entries;
  std::vector<uint64_t> gens;
  if (!env_->ListDir(directory_, &entries, dataset + ".").ok()) return gens;
  for (const DirEntry& entry : entries) {
    DatasetId parsed;
    uint64_t gen;
    if (ParseGenerationName(entry.name, kCheckpointSuffix, &parsed, &gen) &&
        parsed == dataset) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

Status SampleStore::PutCheckpoint(const DatasetId& dataset,
                                  std::string_view payload) {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(dataset));
  const std::string bytes = EncodeFrame(payload);
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  const std::vector<uint64_t> gens = CheckpointGenerations(dataset);
  const uint64_t next_gen = gens.empty() ? 1 : gens.back() + 1;
  const std::string path = CheckpointPathFor(dataset, next_gen);
  Status write =
      Retrying([&] { return env_->WriteFileAtomic(path, bytes); });
  if (!write.ok()) {
    // A torn write may have published a damaged newest generation; never
    // let a cached entry route WAL appends at it.
    newest_generation_.erase(dataset);
    return write;
  }
  // The new generation starts with an empty journal: drop stale bytes a
  // quarantined ancestor of the same number may have left behind.
  env_->Remove(WalPathFor(dataset, next_gen));
  // Keep the newest two generations: the one just written plus one
  // fallback in case the next write tears. Pruned snapshots take their
  // journals with them.
  for (size_t i = 0; i + 1 < gens.size(); ++i) {
    env_->Remove(CheckpointPathFor(dataset, gens[i]));
    env_->Remove(WalPathFor(dataset, gens[i]));
  }
  newest_generation_[dataset] = next_gen;
  BumpCounter(counters_.checkpoints_written);
  return Status::OK();
}

Result<std::pair<uint64_t, std::string>>
SampleStore::NewestValidCheckpointLocked(const DatasetId& key) const {
  const std::vector<uint64_t> gens = CheckpointGenerations(key);
  for (auto gen = gens.rbegin(); gen != gens.rend(); ++gen) {
    const std::string path = CheckpointPathFor(key, *gen);
    std::string bytes;
    const Status read = Retrying([&] { return env_->ReadFile(path, &bytes); });
    if (read.IsIOError()) return read;
    if (!read.ok()) continue;  // vanished between list and read
    std::string_view payload;
    const Status framed = DecodeStoredFile(bytes, path, &payload);
    if (framed.ok()) {
      BumpCounter(counters_.checkpoints_restored);
      return std::make_pair(*gen, std::string(payload));
    }
    if (framed.IsFailedPrecondition()) return framed;
    Quarantine(path);
    Quarantine(WalPathFor(key, *gen));
    newest_generation_.erase(key);
  }
  return Status::NotFound("no checkpoint for dataset");
}

Result<CheckpointChain> SampleStore::GetCheckpointChain(
    const DatasetId& dataset) const {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(dataset));
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  SAMPWH_ASSIGN_OR_RETURN(auto newest, NewestValidCheckpointLocked(dataset));
  CheckpointChain chain;
  chain.generation = newest.first;
  chain.snapshot = std::move(newest.second);
  // Absent WAL = empty journal (a fresh generation); a read error is
  // treated the same — the snapshot alone is still a valid resume point,
  // deltas only refine it.
  const std::string wal_path = WalPathFor(dataset, chain.generation);
  std::string wal_bytes;
  if (env_->ReadFile(wal_path, &wal_bytes).ok()) {
    CheckpointWalParse parse = ParseCheckpointWal(wal_bytes);
    chain.deltas = std::move(parse.records);
    chain.torn_tail = parse.torn_tail;
  }
  // A record of another checkpoint layout refuses the chain, naming its
  // file, before a resume begins decoding it.
  Status layout = NameFileInRefusal(VerifyCheckpointPayload(chain.snapshot),
                                    CheckpointPathFor(dataset, newest.first));
  for (size_t i = 0; i < chain.deltas.size() && layout.ok(); ++i) {
    layout = NameFileInRefusal(VerifyCheckpointDeltaPayload(chain.deltas[i]),
                               wal_path);
  }
  if (layout.IsFailedPrecondition()) return layout;
  return chain;
}

Status SampleStore::AppendCheckpointDeltas(
    const DatasetId& dataset, const std::vector<std::string>& records) {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(dataset));
  if (records.empty()) return Status::OK();
  const std::string batch = FrameWalBatch(records);
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  uint64_t gen;
  const auto cached = newest_generation_.find(dataset);
  if (cached != newest_generation_.end()) {
    gen = cached->second;
  } else {
    const std::vector<uint64_t> gens = CheckpointGenerations(dataset);
    if (gens.empty()) {
      return Status::FailedPrecondition(
          "no snapshot generation to append WAL records to");
    }
    gen = gens.back();
    newest_generation_[dataset] = gen;
  }
  // Not retried: a failed append may have left a torn tail, which stays
  // for the CRC framing to drop on read.
  SAMPWH_RETURN_IF_ERROR(env_->AppendFile(WalPathFor(dataset, gen), batch));
  BumpCounter(counters_.wal_appends);
  BumpCounter(counters_.wal_records_appended, records.size());
  return Status::OK();
}

Status SampleStore::DeleteCheckpoint(const DatasetId& dataset) {
  SAMPWH_RETURN_IF_ERROR(ValidateDatasetId(dataset));
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  newest_generation_.erase(dataset);
  const std::vector<uint64_t> gens = CheckpointGenerations(dataset);
  if (gens.empty()) return Status::NotFound("no checkpoint for dataset");
  for (const uint64_t gen : gens) {
    env_->Remove(CheckpointPathFor(dataset, gen));
    env_->Remove(WalPathFor(dataset, gen));
  }
  return Status::OK();
}

Result<std::vector<DatasetId>> SampleStore::ListCheckpoints() const {
  std::vector<DirEntry> entries;
  SAMPWH_RETURN_IF_ERROR(env_->ListDir(directory_, &entries, ""));
  std::vector<DatasetId> datasets;
  for (const DirEntry& entry : entries) {
    DatasetId dataset;
    uint64_t gen;
    if (ParseGenerationName(entry.name, kCheckpointSuffix, &dataset, &gen)) {
      datasets.push_back(std::move(dataset));
    }
  }
  std::sort(datasets.begin(), datasets.end());
  datasets.erase(std::unique(datasets.begin(), datasets.end()),
                 datasets.end());
  return datasets;
}

Result<std::vector<PartitionSample>> SampleStore::GetMany(
    const std::vector<PartitionKey>& keys, ThreadPool* pool) const {
  std::vector<PartitionSample> out(keys.size());
  if (pool == nullptr || keys.size() < 2) {
    for (size_t i = 0; i < keys.size(); ++i) {
      SAMPWH_ASSIGN_OR_RETURN(out[i], Get(keys[i]));
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
      Result<PartitionSample> r = Get(keys[i]);
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

}  // namespace sampwh
