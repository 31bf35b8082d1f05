#include "src/warehouse/parallel_ingestor.h"

#include <time.h>

#include <algorithm>
#include <cctype>
#include <utility>

#include "src/util/logging.h"

namespace sampwh {

namespace {

/// Sequence value meaning "extend the stripe at its current watermark".
constexpr uint64_t kNoSequence = ~uint64_t{0};

/// Salt folded into the stripe RNG base so parallel-ingest streams never
/// collide with the warehouse's own Fork() streams under the same seed.
constexpr uint64_t kStripeRngSalt = 0x70696E67737464ULL;

uint64_t ThreadCpuNanos() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

/// One handoff unit on a producer→shard ring.
struct ShardBatch {
  uint64_t stripe = 0;
  uint64_t sequence = kNoSequence;
  uint64_t timestamp = 0;
  std::vector<Value> values;
};

// --- Producer --------------------------------------------------------------

ParallelIngestor::Producer::Producer(ParallelIngestor* owner) : owner_(owner) {
  rings_.reserve(owner_->num_shards());
  for (size_t s = 0; s < owner_->num_shards(); ++s) {
    rings_.push_back(
        std::make_unique<SpscRing<ShardBatch>>(owner_->options_.ring_capacity));
  }
}

ParallelIngestor::Producer::~Producer() = default;

Status ParallelIngestor::Producer::Append(uint64_t stripe,
                                          std::span<const Value> values,
                                          uint64_t timestamp) {
  return Push(stripe, kNoSequence, values, timestamp);
}

Status ParallelIngestor::Producer::AppendAt(uint64_t stripe, uint64_t sequence,
                                            std::span<const Value> values,
                                            uint64_t timestamp) {
  if (sequence == kNoSequence) {
    return Status::InvalidArgument("reserved sequence value");
  }
  return Push(stripe, sequence, values, timestamp);
}

Status ParallelIngestor::Producer::Push(uint64_t stripe, uint64_t sequence,
                                        std::span<const Value> values,
                                        uint64_t timestamp) {
  if (values.empty()) return Status::OK();
  const size_t shard = owner_->router_.ShardFor(stripe);
  ShardBatch batch;
  batch.stripe = stripe;
  batch.sequence = sequence;
  batch.timestamp = timestamp;
  batch.values.assign(values.begin(), values.end());
  SpscRing<ShardBatch>& ring = *rings_[shard];
  while (!ring.TryPush(batch)) {
    // Backpressure: the shard is behind. Never push after shutdown — the
    // consumer is gone and the spin would never end.
    if (owner_->stop_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("parallel ingestor is finished");
    }
    std::this_thread::yield();
  }
  owner_->pushed_[shard]->fetch_add(1, std::memory_order_release);
  return Status::OK();
}

// --- ParallelIngestor ------------------------------------------------------

ParallelIngestor::ParallelIngestor(Warehouse* warehouse, DatasetId dataset,
                                   PartitionerFactory partitioner_factory,
                                   ParallelIngestOptions options)
    : ParallelIngestor(warehouse, std::move(dataset),
                       std::move(partitioner_factory), std::move(options),
                       DeferStart{}) {
  StartThreads();
}

ParallelIngestor::ParallelIngestor(Warehouse* warehouse, DatasetId dataset,
                                   PartitionerFactory partitioner_factory,
                                   ParallelIngestOptions options, DeferStart)
    : warehouse_(warehouse),
      dataset_(std::move(dataset)),
      partitioner_factory_(std::move(partitioner_factory)),
      options_(std::move(options)),
      router_(dataset_,
              options_.shards != 0
                  ? options_.shards
                  : std::max<size_t>(1, std::thread::hardware_concurrency())),
      seed_base_(warehouse != nullptr
                     ? warehouse->options().seed ^
                           ShardRouter::HashBytes(dataset_) ^ kStripeRngSalt
                     : 0) {
  SAMPWH_CHECK(warehouse_ != nullptr);
  if (options_.enable_checkpoints) {
    CheckpointWriter::Options writer_options;
    writer_options.group_commit_micros =
        options_.checkpoint_policy.group_commit_micros;
    writer_options.ring_capacity = options_.checkpoint_ring_capacity;
    writer_options.snapshot_every_wal_bytes =
        options_.checkpoint_policy.snapshot_every_wal_bytes;
    writer_options.snapshot_every_deltas =
        options_.checkpoint_policy.snapshot_every_deltas;
    ckpt_writer_ = std::make_unique<CheckpointWriter>(warehouse_,
                                                      writer_options);
  }
  const size_t n = router_.num_shards();
  producers_.reserve(std::max<size_t>(options_.max_producers, 1));
  pushed_.reserve(n);
  applied_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    pushed_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    applied_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  stripes_.resize(n);
  shard_errors_.assign(n, Status::OK());
  stats_.resize(n);
}

ParallelIngestor::~ParallelIngestor() {
  // Crash semantics: stop without draining or flushing. In-flight ring
  // content is dropped; a checkpointed run resumes from its last durable
  // cursor exactly as after a real crash.
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ParallelIngestor::StartThreads() {
  const size_t n = router_.num_shards();
  threads_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    threads_.emplace_back([this, s] { ShardMain(s); });
  }
}

ParallelIngestor::Producer* ParallelIngestor::AddProducer() {
  std::lock_guard<std::mutex> lock(producers_mu_);
  // The table never reallocates (capacity fixed at construction), so shard
  // threads may scan published slots without taking producers_mu_.
  SAMPWH_CHECK(producers_.size() < producers_.capacity());
  producers_.push_back(std::unique_ptr<Producer>(new Producer(this)));
  producer_count_.store(producers_.size(), std::memory_order_release);
  return producers_.back().get();
}

void ParallelIngestor::ShardMain(size_t shard) {
  ShardBatch batch;
  while (true) {
    bool did_work = false;
    const size_t producers = producer_count_.load(std::memory_order_acquire);
    for (size_t p = 0; p < producers; ++p) {
      SpscRing<ShardBatch>& ring = *producers_[p]->rings_[shard];
      while (ring.TryPop(&batch)) {
        ApplyBatch(shard, batch);
        applied_[shard]->fetch_add(1, std::memory_order_release);
        did_work = true;
      }
    }
    if (!did_work) {
      // stop_ is only set with producers quiescent (Finish) or when ring
      // content may be abandoned (destructor), so an empty sweep under
      // stop_ means this shard is done.
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
  }
}

StreamIngestor* ParallelIngestor::StripeIngestor(size_t shard,
                                                 uint64_t stripe) {
  auto& owned = stripes_[shard];
  const auto it = owned.find(stripe);
  if (it != owned.end()) return it->second.get();
  // First contact with this stripe: its RNG stream is Pcg64(seed_base_,
  // stripe) — a pure function of (seed, dataset, stripe), so neither
  // arrival order nor shard count can change the stripe's randomness.
  auto ingestor = std::make_unique<StreamIngestor>(
      warehouse_, dataset_,
      partitioner_factory_ ? partitioner_factory_(stripe) : nullptr,
      Pcg64(seed_base_, stripe), CheckpointKeyFor(stripe));
  if (options_.enable_checkpoints) {
    // All stripes share the one background writer; each gets its own SPSC
    // lane, produced only by this shard thread.
    ingestor->EnableCheckpoints(options_.checkpoint_policy,
                                ckpt_writer_.get());
  }
  return owned.emplace(stripe, std::move(ingestor)).first->second.get();
}

void ParallelIngestor::ApplyBatch(size_t shard, ShardBatch& batch) {
  ShardIngestStats& stats = stats_[shard];
  ++stats.batches;
  stats.elements += batch.values.size();
  // Sticky per-shard error: keep draining (so Drain() terminates and other
  // stripes finish), surface the first failure from Drain()/Finish().
  if (!shard_errors_[shard].ok()) return;
  const uint64_t start = ThreadCpuNanos();
  StreamIngestor* ingestor = StripeIngestor(shard, batch.stripe);
  const Status status =
      batch.sequence == kNoSequence
          ? ingestor->AppendBatch(batch.values, batch.timestamp)
          : ingestor->AppendBatchAt(batch.sequence, batch.values,
                                    batch.timestamp);
  stats.busy_nanos += ThreadCpuNanos() - start;
  if (!status.ok()) shard_errors_[shard] = status;
}

std::string ParallelIngestor::CheckpointKeyFor(uint64_t stripe) const {
  return dataset_ + "#s" + std::to_string(stripe);
}

Status ParallelIngestor::Drain() {
  for (size_t s = 0; s < router_.num_shards(); ++s) {
    // Producers are quiescent, so pushed_[s] is its final value; the
    // acquire loads pair with the shard thread's release increments,
    // making every applied batch's effects visible here.
    const uint64_t target = pushed_[s]->load(std::memory_order_acquire);
    while (applied_[s]->load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
  }
  for (const Status& status : shard_errors_) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status ParallelIngestor::Finish() {
  if (!finished_) {
    const Status drained = Drain();
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    finished_ = true;
    if (!drained.ok()) return drained;
    // Flush stripes in ascending stripe order so the final partition
    // closes happen in a scheduling-independent order.
    std::map<uint64_t, StreamIngestor*> all;
    for (auto& shard : stripes_) {
      for (auto& [stripe, ingestor] : shard) all[stripe] = ingestor.get();
    }
    for (auto& [stripe, ingestor] : all) {
      SAMPWH_RETURN_IF_ERROR(ingestor->Flush());
    }
    return Status::OK();
  }
  for (const Status& status : shard_errors_) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

std::vector<PartitionId> ParallelIngestor::rolled_in() const {
  std::map<uint64_t, const StreamIngestor*> all;
  for (const auto& shard : stripes_) {
    for (const auto& [stripe, ingestor] : shard) all[stripe] = ingestor.get();
  }
  std::vector<PartitionId> ids;
  for (const auto& [stripe, ingestor] : all) {
    const std::vector<PartitionId>& part = ingestor->rolled_in();
    ids.insert(ids.end(), part.begin(), part.end());
  }
  return ids;
}

std::map<uint64_t, uint64_t> ParallelIngestor::next_sequences() const {
  std::map<uint64_t, uint64_t> sequences;
  for (const auto& shard : stripes_) {
    for (const auto& [stripe, ingestor] : shard) {
      sequences[stripe] = ingestor->next_sequence();
    }
  }
  return sequences;
}

Result<std::unique_ptr<ParallelIngestor>> ParallelIngestor::Resume(
    Warehouse* warehouse, DatasetId dataset,
    PartitionerFactory partitioner_factory, ParallelIngestOptions options) {
  if (warehouse == nullptr) {
    return Status::InvalidArgument("null warehouse");
  }
  // A resumable run is by definition a checkpointed one; stripes first
  // contacted after the resume must checkpoint too.
  options.enable_checkpoints = true;
  auto ingestor = std::unique_ptr<ParallelIngestor>(new ParallelIngestor(
      warehouse, std::move(dataset), std::move(partitioner_factory),
      std::move(options), DeferStart{}));

  SAMPWH_ASSIGN_OR_RETURN(std::vector<DatasetId> keys,
                          warehouse->ListIngestCheckpoints());
  const std::string prefix = ingestor->dataset_ + "#s";
  size_t resumed = 0;
  for (const std::string& key : keys) {
    if (key.size() <= prefix.size() ||
        key.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    uint64_t stripe = 0;
    bool numeric = true;
    for (size_t i = prefix.size(); i < key.size(); ++i) {
      if (key[i] < '0' || key[i] > '9') {
        numeric = false;
        break;
      }
      stripe = stripe * 10 + static_cast<uint64_t>(key[i] - '0');
    }
    if (!numeric) continue;
    // Ownership is re-derived from the hash — the shard count may differ
    // from the interrupted run's without disturbing any stripe's stream.
    const size_t shard = ingestor->router_.ShardFor(stripe);
    SAMPWH_ASSIGN_OR_RETURN(
        std::unique_ptr<StreamIngestor> resumed_stripe,
        StreamIngestor::Resume(warehouse, ingestor->dataset_,
                               ingestor->partitioner_factory_
                                   ? ingestor->partitioner_factory_(stripe)
                                   : nullptr,
                               ingestor->options_.checkpoint_policy, key,
                               ingestor->ckpt_writer_.get()));
    ingestor->stripes_[shard].emplace(stripe, std::move(resumed_stripe));
    ++resumed;
  }
  if (resumed == 0) {
    return Status::NotFound("no stripe checkpoints for dataset " +
                            ingestor->dataset_);
  }
  ingestor->StartThreads();
  return ingestor;
}

}  // namespace sampwh
