// Shard-per-core parallel ingestion (the fix for BENCH_ingest's flat
// multi-worker scaling): N shard threads each own a disjoint set of
// stripes end-to-end — per-stripe sampler, PCG RNG stream, partitioner
// cursor and checkpoint key — and producers hand batches to shards over
// lock-free SPSC ring buffers, one ring per producer→shard pair, so the
// hot path takes no mutex anywhere.
//
// A *stripe* is the unit of ordered sub-stream ownership: all elements of
// a stripe flow through one single-threaded StreamIngestor, and the
// ShardRouter hash fixes which shard runs it. Each stripe's randomness is
// a pure function of (warehouse seed, dataset, stripe) — never of thread
// scheduling — so for a fixed assignment of elements to stripes the
// rolled-in samples are byte-identical regardless of how producer threads
// interleave, how many shards run, or when the run was interrupted and
// resumed. (Partition *ids* are allocated in arrival order and may differ
// between interleavings; the sample bytes rolled in per stripe do not.)
// Statistical exactness is inherited from the paper's merge theorems:
// every stripe rolls in uniform partition samples, and queries merge them
// through the same mergeable-sample machinery single-threaded ingest uses.
//
// Ordering contract: at most one producer may feed a given stripe at a
// time (producers own disjoint stripe sets, the natural shape when each
// producer reads one source split). Cross-stripe interleaving is
// unconstrained — that is what the determinism above makes irrelevant.

#ifndef SAMPWH_WAREHOUSE_PARALLEL_INGESTOR_H_
#define SAMPWH_WAREHOUSE_PARALLEL_INGESTOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/util/shard_router.h"
#include "src/util/spsc_ring.h"
#include "src/warehouse/stream_ingestor.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {

struct ParallelIngestOptions {
  /// Shard (worker thread) count; 0 uses hardware_concurrency.
  size_t shards = 0;
  /// Capacity of each producer→shard ring, in batches (rounded up to a
  /// power of two).
  size_t ring_capacity = 256;
  /// Upper bound on AddProducer() calls (the producer table is allocated
  /// up front so shard threads can scan it without locks).
  size_t max_producers = 16;
  /// Give every stripe ingestor a checkpoint cursor under
  /// "<dataset>#s<stripe>" and this cadence policy, making the whole
  /// parallel run crash-resumable via Resume(). All stripes share ONE
  /// background CheckpointWriter, so per-stripe delta cadences cost one
  /// extra thread total, not one per stripe.
  bool enable_checkpoints = false;
  CheckpointPolicy checkpoint_policy;
  /// Capacity of each stripe's checkpoint ring into the shared writer.
  size_t checkpoint_ring_capacity = 32;
};

/// Per-shard work counters, for the scaling bench and for tests.
struct ShardIngestStats {
  uint64_t batches = 0;
  uint64_t elements = 0;
  /// Thread CPU time spent applying batches (CLOCK_THREAD_CPUTIME_ID),
  /// excluding ring-poll spinning — max over shards is the parallel
  /// makespan of the useful work.
  uint64_t busy_nanos = 0;
};

class ParallelIngestor {
 public:
  /// Builds the partitioner for one stripe's ingestor. Called once per
  /// stripe that receives data (and once per checkpointed stripe on
  /// Resume); may return nullptr for a single never-closing partition.
  using PartitionerFactory =
      std::function<std::unique_ptr<Partitioner>(uint64_t stripe)>;

  /// Starts the shard threads immediately. `warehouse` must outlive the
  /// ingestor; the dataset must exist.
  ParallelIngestor(Warehouse* warehouse, DatasetId dataset,
                   PartitionerFactory partitioner_factory,
                   ParallelIngestOptions options = {});

  /// Stops shard threads WITHOUT flushing open stripes — destruction is
  /// crash semantics; use Finish() for a clean shutdown. With checkpoints
  /// enabled, whatever was durably checkpointed is resumable.
  ~ParallelIngestor();

  /// A producer handle: the single-threaded side of one set of SPSC rings.
  /// Each handle may be driven by one thread at a time.
  class Producer {
   public:
    /// Routes one batch to the owning shard, blocking (spin+yield) while
    /// that ring is full. The batch extends `stripe` at its current
    /// watermark. Fails only after Finish().
    Status Append(uint64_t stripe, std::span<const Value> values,
                  uint64_t timestamp = 0);

    /// Sequence-addressed variant for exactly-once replay: `sequence` is
    /// the 0-based position of values[0] in the stripe's sub-stream.
    /// Duplicate/straddling batches are reconciled by the stripe's
    /// ingestor exactly as in StreamIngestor::AppendBatchAt.
    Status AppendAt(uint64_t stripe, uint64_t sequence,
                    std::span<const Value> values, uint64_t timestamp = 0);

    ~Producer();

   private:
    friend class ParallelIngestor;
    explicit Producer(ParallelIngestor* owner);

    Status Push(uint64_t stripe, uint64_t sequence,
                std::span<const Value> values, uint64_t timestamp);

    ParallelIngestor* owner_;
    /// One ring per shard; rings_[s] is consumed only by shard s.
    std::vector<std::unique_ptr<SpscRing<struct ShardBatch>>> rings_;
  };

  /// Registers a new producer (at most options.max_producers). The handle
  /// is owned by the ingestor and valid for its lifetime.
  Producer* AddProducer();

  /// Waits until every batch pushed so far has been applied by its shard.
  /// Callable only while all producers are quiescent (externally
  /// synchronized); shard threads keep running.
  Status Drain();

  /// Drains, stops and joins the shard threads, then flushes every stripe
  /// (closing open partitions in stripe order). Idempotent. After Finish
  /// the accessors below reflect the completed run.
  Status Finish();

  /// Partition ids rolled in, grouped by stripe in ascending stripe order
  /// (creation order within a stripe). Valid after Finish().
  std::vector<PartitionId> rolled_in() const;

  /// Each active stripe's replay watermark. Valid when quiescent.
  std::map<uint64_t, uint64_t> next_sequences() const;

  /// Per-shard work counters. Stable after Drain()/Finish().
  const std::vector<ShardIngestStats>& shard_stats() const { return stats_; }

  size_t num_shards() const { return router_.num_shards(); }

  /// Reopens a checkpointed parallel run: every "<dataset>#s<stripe>"
  /// checkpoint cursor is resumed into its owning shard (the router hash
  /// re-derives ownership — shard count may even change between runs),
  /// interrupted partition closes are reconciled per stripe, and the shard
  /// threads start. Feed each stripe from its next_sequences() watermark
  /// (or earlier) via Producer::AppendAt. NotFound when no stripe
  /// checkpoint exists.
  static Result<std::unique_ptr<ParallelIngestor>> Resume(
      Warehouse* warehouse, DatasetId dataset,
      PartitionerFactory partitioner_factory,
      ParallelIngestOptions options = {});

 private:
  struct DeferStart {};  // tag: build without launching shard threads

  ParallelIngestor(Warehouse* warehouse, DatasetId dataset,
                   PartitionerFactory partitioner_factory,
                   ParallelIngestOptions options, DeferStart);

  void StartThreads();
  void ShardMain(size_t shard);
  /// Applies one batch on shard `shard`, creating the stripe's ingestor on
  /// first contact.
  void ApplyBatch(size_t shard, struct ShardBatch& batch);
  StreamIngestor* StripeIngestor(size_t shard, uint64_t stripe);
  std::string CheckpointKeyFor(uint64_t stripe) const;

  Warehouse* warehouse_;
  DatasetId dataset_;
  PartitionerFactory partitioner_factory_;
  ParallelIngestOptions options_;
  ShardRouter router_;
  /// Stripe RNG base: seed ^ H(dataset) ^ salt; stripe k samples on
  /// Pcg64(seed_base_, k) — order-independent and resume-stable.
  uint64_t seed_base_;

  /// Shared background checkpoint writer for all stripes (set when
  /// checkpoints are enabled). Declared before stripes_ so it is destroyed
  /// AFTER them — stripe channels stay valid for the stripes' lifetime.
  std::unique_ptr<CheckpointWriter> ckpt_writer_;

  /// Producer table. Slots are filled front-to-back under producers_mu_;
  /// shard threads scan [0, producer_count_) lock-free — the vector is
  /// sized at construction and never reallocates.
  std::mutex producers_mu_;
  std::vector<std::unique_ptr<Producer>> producers_;
  std::atomic<size_t> producer_count_{0};

  /// Handoff accounting for Drain(): batches pushed per shard (producers,
  /// fetch_add) vs batches applied per shard (the shard thread, release).
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> pushed_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> applied_;

  /// Per-shard stripe ingestors, keyed by stripe; each map is touched only
  /// by its shard thread while threads run, by the caller after Finish().
  std::vector<std::map<uint64_t, std::unique_ptr<StreamIngestor>>> stripes_;
  std::vector<Status> shard_errors_;
  std::vector<ShardIngestStats> stats_;

  std::atomic<bool> stop_{false};
  bool finished_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace sampwh

#endif  // SAMPWH_WAREHOUSE_PARALLEL_INGESTOR_H_
