// Shared declarations of the repository benchmark (see perfbench/README.md).
//
// A run is a fixed, seeded sequence of operations against in-process
// WarehouseServer nodes, driven by one thread through a ShardCoordinator
// and that coordinator's per-node WarehouseClients. Nothing in the
// sequence depends on how fast the machine is: throughput is operations
// divided by the time they took.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sample.h"
#include "src/server/coordinator.h"
#include "src/server/server.h"
#include "src/util/status.h"

namespace perfbench {

using sampwh::PartitionId;
using sampwh::PartitionSample;
using sampwh::Value;

inline constexpr char kTenant[] = "bench";
/// Pre-sampled partitions rolled in through the coordinator; every query
/// reads this dataset.
inline constexpr char kFacts[] = "facts";
/// Raw elements streamed into node 0's ingest session.
inline constexpr char kFeed[] = "feed";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for file stores, manifests and span files.
  std::string work_dir = ".bench_work";
  /// Self-test size: a few operations of every kind.
  bool tiny = false;
  /// Self-test: flip one byte of a reference answer, so the correctness
  /// gate must fail.
  bool corrupt_reference = false;
};

enum class OpKind { kQuery, kRollIn, kAppend };

struct Op {
  OpKind kind = OpKind::kQuery;
  /// kQuery: window over the newest facts partitions (0 = a random half of
  /// all of them); kRollIn: facts partition index; kAppend: feed batch
  /// index.
  uint64_t arg = 0;
};

struct WorkloadConfig {
  std::string name;
  size_t nodes = 1;
  uint32_t replication = 1;
  bool file_store = false;
  /// F of the nodes' sampler and merge options.
  uint64_t sample_bytes = 64 * 1024;
  /// Facts partitions the setup samples and rolls in.
  uint64_t population = 0;
  /// Raw elements generated per facts partition the setup loads, and per
  /// partition the measured sequence rolls in.
  uint64_t population_raw_elements = 0;
  uint64_t rollin_raw_elements = 0;
  /// Feed batches the setup streams (the server's default partition size
  /// closes one partition every 4 batches).
  uint64_t setup_batches = 0;
  uint64_t batch_elements = 16 * 1024;
  /// Setups per run: the first is the deployment the sequence measures, the
  /// rest follow its checks; setup_s is their median.
  int setups = 9;
  /// The measured sequence: a whole number of cycles of ops_per_cycle
  /// operations each.
  std::vector<Op> ops;
  size_t ops_per_cycle = 1;
};

WorkloadConfig MakeConfig(const Args& args);

// --- Measurement helpers (metrics.cc) -------------------------------------

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of `v` (q in (0, 1]); 0 for an empty vector.
double Percentile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
/// True when at least ten samples lie beyond the q-th percentile.
bool TailResolved(size_t n, double q);

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// One span of the traced run: a call into a layer's public function.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t op = -1;
};

/// In-memory span recorder; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Opens an enclosing span (a run segment or replay leg).
  void Open(const std::string& name);
  void Close();
  /// Records a finished call under the innermost open span.
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t op);
  /// Writes one JSON object per span.
  sampwh::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();
/// Steal ticks summed over all CPUs, from /proc/stat.
uint64_t StealTicks();
/// Wall seconds of a fixed single-core integer loop.
double SpinProbeSeconds();
/// Filesystem type of `path` ("ext4", "tmpfs", ... or the hex magic).
std::string FilesystemType(const std::string& path);
/// Bytes of the regular files under `dir`, split by what they hold.
struct DirBytes {
  uint64_t samples = 0;
  uint64_t checkpoints = 0;
  uint64_t manifest = 0;
  uint64_t total() const { return samples + checkpoints + manifest; }
};
DirBytes ScanStoreDirectory(const std::string& dir);

std::string SerializeSample(const PartitionSample& sample);

// --- Inputs (workloads.cc) -------------------------------------------------

/// Raw elements of facts partition `p`; a pure function of (seed, p).
std::vector<Value> RawPartition(const WorkloadConfig& c, uint64_t seed,
                                uint64_t p);
/// Feed batch `b`; a pure function of (seed, b).
std::vector<Value> FeedBatch(const WorkloadConfig& c, uint64_t seed,
                             uint64_t b);
/// Facts partition `p` sampled with the nodes' configured sampler.
PartitionSample SampleRaw(const WorkloadConfig& c, uint64_t seed, uint64_t p,
                          const std::vector<Value>& raw);

sampwh::ServerOptions NodeOptions(const WorkloadConfig& c,
                                  const std::string& store_directory);
sampwh::CoordinatorOptions CoordOptions(const WorkloadConfig& c);

// --- One deployment and its operation log (workloads.cc) -------------------

/// Counters summed over every node, read in process (no RPC).
struct NodeCounters {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t replica_writes = 0;
  sampwh::CacheStats sample_cache;
  sampwh::CacheStats memo;
};

/// Per-operation counters gathered in the traced pass.
struct TraceCounters {
  uint64_t queries = 0;
  uint64_t query_rpcs = 0;
  uint64_t rollins = 0;
  uint64_t rollin_rpcs = 0;
  uint64_t replica_writes = 0;
  sampwh::CacheStats sample_cache;
  sampwh::CacheStats memo;
  /// Server error responses, protocol errors and dropped connections,
  /// plus coordinator retries and transport errors, over the pass.
  uint64_t errors = 0;
  uint64_t coordinator_retries = 0;
  /// Node 0's store counters at the end of the pass (the nodes start
  /// with zeroed counters).
  sampwh::StoreStats feed_store;
  DirBytes stored;
};

class Session {
 public:
  Session(const WorkloadConfig& config, const Args& args, Tracer* tracer);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Deploys the nodes and loads the population; returns setup seconds.
  sampwh::Result<double> Setup();
  /// Runs the measured sequence; returns its wall seconds.
  double RunOps();
  /// Byte-compares the kept answers with an embedded single-Warehouse
  /// reference. Prints each mismatch.
  bool CheckAnswers();
  /// ingest_rollup: stops and restarts every node, then checks that every
  /// acknowledged partition survived on every owner with its digest, and
  /// that tenant usage equals the stored footprint. Returns the restart
  /// milliseconds through `restart_ms`.
  bool RestartAndVerify(double* restart_ms);

  NodeCounters ReadCounters() const;
  sampwh::CoordinatorStats CoordStats() const { return coord_->stats(); }
  /// Everything the nodes store, and the serialized bytes of live samples
  /// summed over owners.
  void StoredBytes(DirBytes* stored, uint64_t* live_sample_bytes) const;
  sampwh::StoreStats FeedStoreStats() const;

  const WorkloadConfig& config() const { return config_; }
  const Args& args() const { return args_; }

  // The run's log, read by the metric and replay code.
  std::vector<double> query_ms, rollin_ms, append_ms, close_ms;
  uint64_t appended_elements = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Acknowledged facts ids in roll-in order, and the facts partition
  /// index each one holds.
  std::vector<PartitionId> facts_ids;
  std::vector<uint64_t> facts_p;
  /// Per measured op: resolved query ids and latency.
  std::vector<std::vector<PartitionId>> op_ids;
  std::vector<double> op_ms;
  /// Latency and close flag of each feed batch, by batch index, for the
  /// latest setup plus the measured sequence.
  std::vector<double> batch_ms;
  std::vector<bool> batch_closed;
  uint64_t feed_closed = 0;
  /// Counters of the traced pass (collected only with a tracer).
  TraceCounters counters;

 private:
  /// Stops every node and drops the deployment.
  void Teardown();
  std::string NodeDirectory(size_t node) const;
  bool Query(int64_t op, const std::vector<PartitionId>& ids);
  bool RollIn(int64_t op, uint64_t p, const PartitionSample& sample);
  bool Append(int64_t op, uint64_t b, const std::vector<Value>& values);

  WorkloadConfig config_;
  Args args_;
  Tracer* tracer_;
  std::vector<sampwh::ServerOptions> node_options_;
  std::vector<std::unique_ptr<sampwh::WarehouseServer>> servers_;
  std::unique_ptr<sampwh::ShardCoordinator> coord_;
  uint64_t next_sequence_ = 0;
  double last_ms_ = 0;
  /// Measured query ops whose answers the correctness gate re-checks.
  std::map<int64_t, std::string> kept_answers_;
  std::vector<bool> keep_;
};

// --- Traced replay (replay.cc) ----------------------------------------------

/// Replays a seeded sample of the traced pass into each lower layer and
/// derives every per-layer metric.
MetricMap ReplayLayers(Session& traced, double untraced_seconds,
                       double traced_seconds, double restart_ms);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
