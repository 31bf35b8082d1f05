// Ingestion-throughput harness for the skip-based batch fast path: measures
// elements/sec through the three ingestion paths
//
//   append_scalar  StreamIngestor::Append, one element at a time
//   append_batch   StreamIngestor::AppendBatch in 64K-element chunks
//   sampler_batch  AnySampler::AddBatch on the whole stream (the pure
//                  skip-sampling path, no warehouse bookkeeping)
//
// across sampler configurations (SB at several rates, HB, HR), plus a
// multi-partition scaling series: 8 partitions ingested through
// Warehouse::IngestBatch on thread pools of 1/2/4/8 workers. Each scaling
// row reports both the real measured wall time on this machine and the
// makespan of an LPT assignment of the measured per-partition times onto
// W idealized workers — the same simulated-cluster substitution the
// figure-reproduction harnesses use (DESIGN.md §2). On a machine with
// fewer free cores than W the two series part ways: the measured wall time
// stops scaling, the simulated makespan does not.
//
// A fourth section measures the cost of crash-safe ingestion: AppendBatch
// through a file-backed warehouse that rolls in a partition every 4 Ki,
// 16 Ki or 64 Ki elements, with the checkpoint protocol off and on. With
// it on, each close writes one record after its roll-in, and the section
// reports the throughput overhead those records cost. Its legs run
// interleaved over kCheckpointReps passes of 4 Mi elements (1 Mi under
// --smoke).
//
// A fifth section compares the Bern(q) acceptance kernels head to head:
// the geometric-skip path vs the 64-lane bitmask path (branch-free mask
// generation + compress-store), at several rates.
//
// Results go to stdout as tables and to BENCH_ingest.json in the working
// directory. REPRO_FULL=1 runs the paper-scale stream (2^26 elements);
// --smoke runs a reduced-size gated subset for CI.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/core/any_sampler.h"
#include "src/core/batch_accept.h"
#include "src/core/bernoulli_sampler.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/warehouse/sample_store.h"
#include "src/warehouse/stream_ingestor.h"
#include "src/warehouse/warehouse.h"
#include "src/workload/generators.h"

namespace sampwh::bench {
namespace {

constexpr size_t kChunk = 64 * 1024;

// Passes of the checkpoint section. The smoke gate compares two of its
// legs, so each leg must run often enough that one slow or fast pass
// cannot decide the verdict. Every leg rolls in a partition per 4-64 Ki
// elements to a file store, so even the smoke's 1 Mi-element stream runs
// each leg for tens of milliseconds.
constexpr int kCheckpointReps = 15;

struct PathRow {
  std::string config;   // "SB q=0.01", "HB F=64KiB", ...
  std::string path;     // append_scalar / append_batch / sampler_batch
  double seconds = 0.0;
  double elements_per_sec = 0.0;
  double speedup_vs_scalar = 1.0;
};

struct CheckpointRow {
  uint64_t partition_elements = 0;
  bool checkpoints = false;
  uint64_t wal_records = 0;  // close records appended to the WAL
  double seconds = 0.0;
  double elements_per_sec = 0.0;
  double overhead_pct = 0.0;  // vs checkpoints off at the same partition size
  uint64_t checkpoints_written = 0;  // snapshot generations
};

struct ScalingRow {
  uint64_t workers = 1;
  double measured_seconds = 0.0;
  double measured_speedup = 1.0;
  double simulated_makespan_seconds = 0.0;
  double simulated_speedup = 1.0;
};

struct AcceptModeRow {
  std::string config;  // "SB q=0.01", ...
  std::string mode;    // geometric_skip / bitmask
  double seconds = 0.0;
  double elements_per_sec = 0.0;
  double speedup_vs_skip = 1.0;
};

SamplerConfig SbConfig(double q) {
  SamplerConfig config;
  config.kind = SamplerKind::kStratifiedBernoulli;
  config.bernoulli_rate = q;
  return config;
}

SamplerConfig BoundedConfig(SamplerKind kind, uint64_t expected) {
  SamplerConfig config;
  config.kind = kind;
  config.footprint_bound_bytes = 64 * 1024;
  config.expected_partition_size = expected;
  return config;
}

/// Best-of-`reps` of `fn()`, where `fn` returns the seconds it measured
/// (setup and teardown stay outside the measured section).
template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) best = std::min(best, fn());
  return best;
}

/// Times the append loop only; warehouse setup and the final partition
/// close (finalize + roll-in, identical for every path) run untimed.
template <typename AppendLoop>
double TimeIngestorPath(const SamplerConfig& config, int reps,
                        AppendLoop&& loop) {
  return BestOf(reps, [&]() -> double {
    WarehouseOptions options;
    options.sampler = config;
    Warehouse warehouse(options);
    SAMPWH_CHECK(warehouse.CreateDataset("bench").ok());
    StreamIngestor ingestor(&warehouse, "bench", nullptr);
    WallTimer timer;
    loop(ingestor);
    const double seconds = timer.ElapsedSeconds();
    SAMPWH_CHECK(ingestor.Flush().ok());
    return seconds;
  });
}

double TimeAppendScalar(const SamplerConfig& config,
                        const std::vector<Value>& values, int reps) {
  return TimeIngestorPath(config, reps, [&](StreamIngestor& ingestor) {
    for (Value v : values) SAMPWH_CHECK(ingestor.Append(v).ok());
  });
}

double TimeAppendBatch(const SamplerConfig& config,
                       const std::vector<Value>& values, int reps) {
  return TimeIngestorPath(config, reps, [&](StreamIngestor& ingestor) {
    const std::span<const Value> all(values);
    for (size_t i = 0; i < all.size(); i += kChunk) {
      SAMPWH_CHECK(
          ingestor.AppendBatch(all.subspan(i, std::min(kChunk, all.size() - i)))
              .ok());
    }
  });
}

double TimeSamplerBatch(const SamplerConfig& config,
                        const std::vector<Value>& values, int reps) {
  return BestOf(reps, [&]() -> double {
    AnySampler sampler(config, Pcg64(20060403));
    WallTimer timer;
    sampler.AddBatch(values);
    const double seconds = timer.ElapsedSeconds();
    (void)sampler.Finalize();
    return seconds;
  });
}

/// Longest-processing-time makespan of `times` on `workers` idealized
/// workers (same greedy the figure harnesses use for their simulated
/// sampling cluster).
double LptMakespan(std::vector<double> times, uint64_t workers) {
  if (workers == 0) workers = 1;
  std::sort(times.begin(), times.end(), std::greater<double>());
  std::vector<double> load(workers, 0.0);
  for (double t : times) {
    *std::min_element(load.begin(), load.end()) += t;
  }
  return *std::max_element(load.begin(), load.end());
}

void RunPathSection(uint64_t total_elements, int reps,
                    std::vector<PathRow>& rows) {
  struct Case {
    std::string name;
    SamplerConfig config;
  };
  const std::vector<Case> cases = {
      {"SB q=0.01", SbConfig(0.01)},
      {"SB q=0.05", SbConfig(0.05)},
      {"SB q=0.10", SbConfig(0.10)},
      {"HB F=64KiB",
       BoundedConfig(SamplerKind::kHybridBernoulli, total_elements)},
      {"HR F=64KiB",
       BoundedConfig(SamplerKind::kHybridReservoir, total_elements)},
  };
  const std::vector<Value> values =
      DataGenerator::Unique(total_elements).TakeAll();

  std::printf("Ingestion paths (%llu elements, best of %d)\n",
              static_cast<unsigned long long>(total_elements), reps);
  const std::vector<int> widths = {12, 14, 10, 14, 9};
  PrintRow({"config", "path", "seconds", "elems/sec", "speedup"}, widths);

  for (const Case& c : cases) {
    const double scalar = TimeAppendScalar(c.config, values, reps);
    const double batch = TimeAppendBatch(c.config, values, reps);
    const double pure = TimeSamplerBatch(c.config, values, reps);
    const auto emit = [&](const std::string& path, double seconds) {
      PathRow row;
      row.config = c.name;
      row.path = path;
      row.seconds = seconds;
      row.elements_per_sec =
          static_cast<double>(total_elements) / std::max(seconds, 1e-12);
      row.speedup_vs_scalar = scalar / std::max(seconds, 1e-12);
      rows.push_back(row);
      std::printf("%-12s %-14s %9.4f %14.0f %8.2fx\n", row.config.c_str(),
                  row.path.c_str(), row.seconds, row.elements_per_sec,
                  row.speedup_vs_scalar);
    };
    emit("append_scalar", scalar);
    emit("append_batch", batch);
    emit("sampler_batch", pure);
  }
  std::printf("\n");
}

void RunCheckpointSection(uint64_t total_elements,
                          std::vector<CheckpointRow>& rows) {
  // The stream arrives in bounded batches, as from a replayable queue.
  constexpr size_t kCkptChunk = 4096;
  const std::vector<Value> values =
      DataGenerator::Unique(total_elements).TakeAll();
  // Per-process scratch dir: concurrent bench/check.sh invocations must
  // not recover each other's WAL and snapshot files.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sampwh_bench_ckpt." + std::to_string(::getpid())))
          .string();

  std::printf(
      "Checkpoint overhead (%llu elements, HR, file store, one roll-in per "
      "partition, %d interleaved passes: best pass,\n"
      "overhead = median over passes against the same pass's leg with "
      "checkpoints off at the same partition size)\n",
      static_cast<unsigned long long>(total_elements), kCheckpointReps);
  const std::vector<int> widths = {10, 6, 10, 14, 10, 8, 12};
  PrintRow({"partition", "ckpt", "seconds", "elems/sec", "overhead", "snaps",
            "wal_records"},
           widths);

  // Times one append pass; the row keeps the store counters of its last
  // pass.
  const auto time_leg = [&](CheckpointRow& row) -> double {
    std::filesystem::remove_all(dir);
    auto store = FileSampleStore::Open(dir);
    SAMPWH_CHECK(store.ok());
    WarehouseOptions options;
    options.sampler = BoundedConfig(SamplerKind::kHybridReservoir,
                                    row.partition_elements);
    Warehouse warehouse(options, std::move(store).value());
    SAMPWH_CHECK(warehouse.CreateDataset("bench").ok());
    StreamIngestor ingestor(&warehouse, "bench",
                            MakeCountPartitioner(row.partition_elements));
    if (row.checkpoints) {
      // As a server ingest session opens: checkpoints on, one snapshot.
      ingestor.EnableCheckpoints({});
      SAMPWH_CHECK(ingestor.Checkpoint().ok());
    }
    const std::span<const Value> all(values);
    WallTimer timer;
    for (size_t i = 0; i < all.size(); i += kCkptChunk) {
      SAMPWH_CHECK(
          ingestor
              .AppendBatch(all.subspan(i, std::min(kCkptChunk, all.size() - i)))
              .ok());
    }
    const double seconds = timer.ElapsedSeconds();
    SAMPWH_CHECK(ingestor.Flush().ok());
    const StoreStats stats = warehouse.store_for_testing()->GetStoreStats();
    row.checkpoints_written = stats.checkpoints_written;
    row.wal_records = stats.wal_records_appended;
    return seconds;
  };

  // One pass over every leg per repetition. A leg's time is its best
  // pass; its overhead is the median over passes of its time against the
  // checkpoints-off leg of the same partition size in the same pass. Legs
  // of one pass run back to back, so a drift in machine speed moves both
  // sides of each ratio alike, and one lucky fast pass of one leg cannot
  // decide the median.
  std::vector<CheckpointRow> legs;
  for (const uint64_t partition : {uint64_t{4096}, uint64_t{16384},
                                   uint64_t{65536}}) {
    for (const bool checkpoints : {false, true}) {
      CheckpointRow row;
      row.partition_elements = partition;
      row.checkpoints = checkpoints;
      row.seconds = std::numeric_limits<double>::infinity();
      legs.push_back(row);
    }
  }
  std::vector<std::vector<double>> ratios(legs.size());
  for (int rep = 0; rep < kCheckpointReps; ++rep) {
    double off_seconds = 0.0;
    for (size_t i = 0; i < legs.size(); ++i) {
      const double seconds = time_leg(legs[i]);
      if (!legs[i].checkpoints) off_seconds = seconds;
      legs[i].seconds = std::min(legs[i].seconds, seconds);
      ratios[i].push_back(seconds / std::max(off_seconds, 1e-12));
    }
  }
  for (size_t i = 0; i < legs.size(); ++i) {
    CheckpointRow& row = legs[i];
    std::vector<double>& r = ratios[i];
    std::nth_element(r.begin(), r.begin() + r.size() / 2, r.end());
    row.elements_per_sec =
        static_cast<double>(total_elements) / std::max(row.seconds, 1e-12);
    row.overhead_pct = 100.0 * (r[r.size() / 2] - 1.0);
    rows.push_back(row);
    std::printf("%-10llu %-6s %9.4f %14.0f %8.2f%% %7llu %11llu\n",
                static_cast<unsigned long long>(row.partition_elements),
                row.checkpoints ? "on" : "off", row.seconds,
                row.elements_per_sec, row.overhead_pct,
                static_cast<unsigned long long>(row.checkpoints_written),
                static_cast<unsigned long long>(row.wal_records));
  }
  std::filesystem::remove_all(dir);
  std::printf("\n");
}

void RunScalingSection(uint64_t total_elements, int reps,
                       std::vector<ScalingRow>& rows) {
  constexpr uint64_t kPartitions = 8;
  const SamplerConfig config = SbConfig(0.10);
  const std::vector<Value> values =
      DataGenerator::Unique(total_elements).TakeAll();

  // Per-partition serial sampling times feed the simulated-cluster series.
  const uint64_t per_partition = total_elements / kPartitions;
  std::vector<double> partition_times;
  for (uint64_t p = 0; p < kPartitions; ++p) {
    const std::span<const Value> chunk(values.data() + p * per_partition,
                                       per_partition);
    partition_times.push_back(BestOf(reps, [&]() -> double {
      AnySampler sampler(config, Pcg64(20060403 + p));
      WallTimer timer;
      sampler.AddBatch(chunk);
      const double seconds = timer.ElapsedSeconds();
      (void)sampler.Finalize();
      return seconds;
    }));
  }
  const double serial =
      std::accumulate(partition_times.begin(), partition_times.end(), 0.0);

  std::printf(
      "Multi-partition scaling (%llu elements, %llu partitions, SB q=0.10)\n",
      static_cast<unsigned long long>(total_elements),
      static_cast<unsigned long long>(kPartitions));
  const std::vector<int> widths = {8, 12, 12, 14, 12};
  PrintRow({"workers", "measured", "meas.spd", "sim.makespan", "sim.spd"},
           widths);

  double measured_base = 0.0;
  for (uint64_t workers : {1u, 2u, 4u, 8u}) {
    ScalingRow row;
    row.workers = workers;
    row.measured_seconds = BestOf(reps, [&]() -> double {
      WarehouseOptions options;
      options.sampler = config;
      Warehouse warehouse(options);
      SAMPWH_CHECK(warehouse.CreateDataset("bench").ok());
      ThreadPool pool(workers);
      WallTimer timer;
      auto ids = warehouse.IngestBatch("bench", values, kPartitions, &pool);
      const double seconds = timer.ElapsedSeconds();
      SAMPWH_CHECK(ids.ok());
      return seconds;
    });
    if (workers == 1) measured_base = row.measured_seconds;
    row.measured_speedup =
        measured_base / std::max(row.measured_seconds, 1e-12);
    row.simulated_makespan_seconds = LptMakespan(partition_times, workers);
    row.simulated_speedup =
        serial / std::max(row.simulated_makespan_seconds, 1e-12);
    rows.push_back(row);
    std::printf("%-8llu %11.4fs %11.2fx %13.4fs %11.2fx\n",
                static_cast<unsigned long long>(workers), row.measured_seconds,
                row.measured_speedup, row.simulated_makespan_seconds,
                row.simulated_speedup);
  }
  std::printf("\n");
}

void RunAcceptModeSection(uint64_t total_elements, int reps,
                          std::vector<AcceptModeRow>& rows) {
  const std::vector<Value> values =
      DataGenerator::Unique(total_elements).TakeAll();

  std::printf("Bern(q) acceptance kernels (%llu elements, best of %d)\n",
              static_cast<unsigned long long>(total_elements), reps);
  const std::vector<int> widths = {12, 16, 10, 14, 9};
  PrintRow({"config", "mode", "seconds", "elems/sec", "speedup"}, widths);

  for (const double q : {0.01, 0.10, 0.50}) {
    char name[32];
    std::snprintf(name, sizeof(name), "SB q=%.2f", q);
    double skip_seconds = 0.0;
    for (const BernAcceptMode mode :
         {BernAcceptMode::kGeometricSkip, BernAcceptMode::kBitmask}) {
      AcceptModeRow row;
      row.config = name;
      row.mode = mode == BernAcceptMode::kBitmask ? "bitmask"
                                                  : "geometric_skip";
      row.seconds = BestOf(reps, [&]() -> double {
        BernoulliSampler sampler(q, Pcg64(20060403), mode);
        WallTimer timer;
        sampler.AddBatch(values);
        const double seconds = timer.ElapsedSeconds();
        (void)sampler.Finalize();
        return seconds;
      });
      if (mode == BernAcceptMode::kGeometricSkip) skip_seconds = row.seconds;
      row.elements_per_sec =
          static_cast<double>(total_elements) / std::max(row.seconds, 1e-12);
      row.speedup_vs_skip = skip_seconds / std::max(row.seconds, 1e-12);
      rows.push_back(row);
      std::printf("%-12s %-16s %9.4f %14.0f %8.2fx\n", row.config.c_str(),
                  row.mode.c_str(), row.seconds, row.elements_per_sec,
                  row.speedup_vs_skip);
    }
  }
  std::printf("\n");
}

bool WriteJson(const std::string& path, uint64_t path_elements,
               uint64_t checkpoint_elements, uint64_t scaling_elements,
               const std::vector<PathRow>& paths,
               const std::vector<CheckpointRow>& checkpoints,
               const std::vector<ScalingRow>& scaling,
               const std::vector<AcceptModeRow>& accept_modes) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"config\": {\"path_elements\": " << path_elements
      << ", \"checkpoint_elements\": " << checkpoint_elements
      << ", \"scaling_elements\": " << scaling_elements
      << ", \"scaling_partitions\": 8, \"full_scale\": "
      << (FullScale() ? "true" : "false")
      << ", \"hardware_threads\": " << HardwareThreads()
      << "},\n";
  out << "  \"paths\": [\n";
  for (size_t i = 0; i < paths.size(); ++i) {
    const PathRow& r = paths[i];
    out << "    {\"config\": \"" << r.config << "\", \"path\": \"" << r.path
        << "\", \"seconds\": " << r.seconds
        << ", \"elements_per_sec\": " << r.elements_per_sec
        << ", \"speedup_vs_scalar\": " << r.speedup_vs_scalar << "}"
        << (i + 1 < paths.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"checkpoints\": [\n";
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    const CheckpointRow& r = checkpoints[i];
    out << "    {\"partition_elements\": " << r.partition_elements
        << ", \"checkpoints\": " << (r.checkpoints ? "true" : "false")
        << ", \"seconds\": " << r.seconds
        << ", \"elements_per_sec\": " << r.elements_per_sec
        << ", \"overhead_pct\": " << r.overhead_pct
        << ", \"checkpoints_written\": " << r.checkpoints_written
        << ", \"wal_records\": " << r.wal_records << "}"
        << (i + 1 < checkpoints.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"scaling\": [\n";
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& r = scaling[i];
    out << "    {\"workers\": " << r.workers
        << ", \"measured_seconds\": " << r.measured_seconds
        << ", \"measured_speedup\": " << r.measured_speedup
        << ", \"simulated_makespan_seconds\": " << r.simulated_makespan_seconds
        << ", \"simulated_speedup\": " << r.simulated_speedup << "}"
        << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"accept_modes\": [\n";
  for (size_t i = 0; i < accept_modes.size(); ++i) {
    const AcceptModeRow& r = accept_modes[i];
    out << "    {\"config\": \"" << r.config << "\", \"mode\": \"" << r.mode
        << "\", \"seconds\": " << r.seconds
        << ", \"elements_per_sec\": " << r.elements_per_sec
        << ", \"speedup_vs_skip\": " << r.speedup_vs_skip << "}"
        << (i + 1 < accept_modes.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.good();
}

int Main(bool smoke) {
  const uint64_t elements =
      FullScale() ? (1ull << 26) : (smoke ? (1ull << 20) : (1ull << 22));
  const int reps = smoke ? 1 : 3;

  std::vector<PathRow> paths;
  std::vector<CheckpointRow> checkpoints;
  std::vector<ScalingRow> scaling;
  std::vector<AcceptModeRow> accept_modes;
  RunPathSection(elements, reps, paths);
  const uint64_t checkpoint_elements = smoke ? (1ull << 20) : (1ull << 22);
  RunCheckpointSection(checkpoint_elements, checkpoints);
  RunScalingSection(elements, reps, scaling);
  RunAcceptModeSection(elements, reps, accept_modes);
  if (!WriteJson("BENCH_ingest.json", elements, checkpoint_elements, elements,
                 paths, checkpoints, scaling, accept_modes)) {
    std::fprintf(stderr, "failed to write BENCH_ingest.json\n");
    return 1;
  }
  std::printf("Wrote BENCH_ingest.json\n");
  if (smoke) {
    // CI gate: checkpoints cost one small record per partition close and
    // nothing between closes. At 64 Ki-element partitions 25% is a generous
    // noise allowance on the smoke machine. The overhead is the median of
    // kCheckpointReps paired passes.
    for (const CheckpointRow& r : checkpoints) {
      if (r.checkpoints && r.partition_elements == 65536 &&
          r.overhead_pct > 25.0) {
        std::fprintf(stderr,
                     "FAIL: checkpoint overhead %.2f%% at 64Ki-element "
                     "partitions (gate: 25%%)\n",
                     r.overhead_pct);
        return 1;
      }
      // Every close writes one record, a WAL record or a snapshot
      // generation; the session's opening snapshot is the one extra
      // generation.
      const uint64_t closes = checkpoint_elements / r.partition_elements;
      const uint64_t records =
          r.wal_records + r.checkpoints_written - (r.checkpoints ? 1 : 0);
      if (records != (r.checkpoints ? closes : 0)) {
        std::fprintf(stderr,
                     "FAIL: %llu checkpoint records for %llu closes at "
                     "%llu-element partitions, checkpoints %s\n",
                     static_cast<unsigned long long>(records),
                     static_cast<unsigned long long>(closes),
                     static_cast<unsigned long long>(r.partition_elements),
                     r.checkpoints ? "on" : "off");
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace sampwh::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_ingest_throughput [--smoke]\n");
      return 2;
    }
  }
  return sampwh::bench::Main(smoke);
}
