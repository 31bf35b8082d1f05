// Query-path throughput harness for the read caches: measures union-query
// latency against a FileSampleStore-backed warehouse
//
//   cold   caches invalidated before every query — store reads,
//          deserialization and the full merge tree on the critical path
//   warm   repeated identical query — sample cache and memoized merge
//          tree absorb the work
//
// across partition counts (16/64/256) and reader-thread counts (1/4/8),
// with the caches on (sample cache + merge memo) and off. Both
// configurations run the balanced merge tree, so cold-vs-warm and
// on-vs-off isolate the caches rather than the tree shape. The harness
// also asserts the caches' core contract: the warm result is byte-for-byte
// identical to the cold result (serialized form compared), because every
// merge node's RNG stream is derived from the node's identity.
//
// Results go to stdout as a table and to BENCH_query.json in the working
// directory. --smoke (or QUERY_BENCH_SMOKE=1) runs a ~2 second subset for
// CI; full mode gates on warm >= 5x cold at 256 partitions, smoke on
// warm >= 2x cold at 64 partitions. Exit status 1 when the gate fails.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/util/logging.h"
#include "src/util/serialization.h"
#include "src/util/timer.h"
#include "src/warehouse/sample_store.h"
#include "src/warehouse/warehouse.h"
#include "src/workload/generators.h"

namespace sampwh::bench {
namespace {

struct BenchParams {
  bool smoke = false;
  std::vector<uint64_t> partition_counts;
  std::vector<unsigned> reader_counts;
  uint64_t per_partition_elements = 0;
  int cold_reps = 0;
  int warm_reps = 0;
  double qps_seconds = 0.0;   // per reader configuration
  uint64_t gate_partitions = 0;
  double gate_speedup = 0.0;
};

BenchParams MakeParams(bool smoke) {
  BenchParams p;
  p.smoke = smoke;
  if (smoke) {
    p.partition_counts = {16, 64};
    p.reader_counts = {1, 4};
    p.per_partition_elements = 512;
    p.cold_reps = 2;
    p.warm_reps = 5;
    p.qps_seconds = 0.15;
    p.gate_partitions = 64;
    p.gate_speedup = 2.0;
  } else {
    p.partition_counts = {16, 64, 256};
    p.reader_counts = {1, 4, 8};
    p.per_partition_elements = 4096;
    p.cold_reps = 3;
    p.warm_reps = 20;
    p.qps_seconds = 0.5;
    p.gate_partitions = 256;
    p.gate_speedup = 5.0;
  }
  return p;
}

struct QpsPoint {
  unsigned readers = 1;
  double qps = 0.0;
};

struct SeriesRow {
  uint64_t partitions = 0;
  bool cache = false;
  double cold_latency_seconds = 0.0;
  double warm_latency_seconds = 0.0;
  double warm_speedup = 1.0;
  std::vector<QpsPoint> qps;
};

std::string SerializeSample(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return std::string(writer.buffer().begin(), writer.buffer().end());
}

/// A file-backed warehouse holding `partitions` rolled-in partition
/// samples of the "q" dataset, with both read caches sized by `cached`.
struct BenchWarehouse {
  std::unique_ptr<Warehouse> warehouse;
  std::string directory;

  BenchWarehouse() = default;
  BenchWarehouse(BenchWarehouse&&) = default;
  BenchWarehouse& operator=(BenchWarehouse&&) = default;
  ~BenchWarehouse() {
    warehouse.reset();
    std::error_code ec;
    std::filesystem::remove_all(directory, ec);
  }
};

BenchWarehouse MakeWarehouse(const BenchParams& params, uint64_t partitions,
                             bool cached) {
  BenchWarehouse bw;
  bw.directory = (std::filesystem::temp_directory_path() /
                  ("sampwh_query_bench_" + std::to_string(partitions) +
                   (cached ? "_on" : "_off")))
                     .string();
  std::filesystem::remove_all(bw.directory);
  auto store = FileSampleStore::Open(bw.directory);
  SAMPWH_CHECK(store.ok());

  WarehouseOptions options;
  options.sampler.kind = SamplerKind::kHybridReservoir;
  options.sampler.footprint_bound_bytes = 16 * 1024;
  options.worker_threads = 4;
  options.sample_cache_bytes = cached ? (256ull << 20) : 0;
  options.merge_memo_bytes = cached ? (256ull << 20) : 0;
  bw.warehouse =
      std::make_unique<Warehouse>(options, std::move(store).value());
  SAMPWH_CHECK(bw.warehouse->CreateDataset("q").ok());

  const std::vector<Value> values =
      DataGenerator::Unique(partitions * params.per_partition_elements)
          .TakeAll();
  auto ids = bw.warehouse->IngestBatch("q", values, partitions);
  SAMPWH_CHECK(ids.ok());
  SAMPWH_CHECK(ids.value().size() == partitions);
  return bw;
}

PartitionSample QueryOnce(Warehouse& warehouse) {
  auto merged = warehouse.MergedSampleAll("q");
  SAMPWH_CHECK(merged.ok());
  return std::move(merged).value();
}

SeriesRow RunSeries(const BenchParams& params, uint64_t partitions,
                    bool cached) {
  BenchWarehouse bw = MakeWarehouse(params, partitions, cached);
  Warehouse& wh = *bw.warehouse;

  SeriesRow row;
  row.partitions = partitions;
  row.cache = cached;

  // Cold: every repetition starts from dropped caches. For the uncached
  // configuration invalidation is a no-op and cold == warm by definition.
  std::string cold_bytes;
  row.cold_latency_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < params.cold_reps; ++r) {
    wh.InvalidateCaches();
    WallTimer timer;
    PartitionSample sample = QueryOnce(wh);
    row.cold_latency_seconds =
        std::min(row.cold_latency_seconds, timer.ElapsedSeconds());
    if (r == 0) cold_bytes = SerializeSample(sample);
  }

  // Warm: repeated identical query (one untimed warming repetition).
  PartitionSample warm_sample = QueryOnce(wh);
  {
    WallTimer timer;
    for (int r = 0; r < params.warm_reps; ++r) warm_sample = QueryOnce(wh);
    row.warm_latency_seconds = timer.ElapsedSeconds() / params.warm_reps;
  }
  row.warm_speedup =
      row.cold_latency_seconds / std::max(row.warm_latency_seconds, 1e-12);

  if (cached) {
    // The caches' contract: warm results are byte-identical to cold ones,
    // and invalidating everything reproduces the same bytes again.
    SAMPWH_CHECK(SerializeSample(warm_sample) == cold_bytes);
    wh.InvalidateCaches();
    SAMPWH_CHECK(SerializeSample(QueryOnce(wh)) == cold_bytes);
  }

  // Sustained throughput: R readers issue the query in a closed loop
  // against the warm warehouse for a fixed wall-time window.
  for (const unsigned readers : params.reader_counts) {
    QueryOnce(wh);  // re-warm after the invalidation above
    std::atomic<uint64_t> completed{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    threads.reserve(readers);
    WallTimer timer;
    for (unsigned t = 0; t < readers; ++t) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          QueryOnce(wh);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        params.qps_seconds));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    const double elapsed = timer.ElapsedSeconds();
    QpsPoint point;
    point.readers = readers;
    point.qps = static_cast<double>(completed.load()) / elapsed;
    row.qps.push_back(point);
  }
  return row;
}

void PrintSeriesRow(const SeriesRow& row) {
  std::printf("%-11llu %-6s %11.6fs %11.6fs %8.1fx",
              static_cast<unsigned long long>(row.partitions),
              row.cache ? "on" : "off", row.cold_latency_seconds,
              row.warm_latency_seconds, row.warm_speedup);
  for (const QpsPoint& p : row.qps) {
    std::printf("  %u:%.0f", p.readers, p.qps);
  }
  std::printf("\n");
}

bool WriteJson(const std::string& path, const BenchParams& params,
               const std::vector<SeriesRow>& rows, double gate_measured,
               bool gate_passed) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"config\": {\"smoke\": " << (params.smoke ? "true" : "false")
      << ", \"per_partition_elements\": " << params.per_partition_elements
      << ", \"worker_threads\": 4, \"store\": \"file\""
      << ", \"hardware_threads\": " << HardwareThreads()
      << "},\n";
  out << "  \"series\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SeriesRow& r = rows[i];
    out << "    {\"partitions\": " << r.partitions
        << ", \"cache\": " << (r.cache ? "true" : "false")
        << ", \"cold_latency_seconds\": " << r.cold_latency_seconds
        << ", \"warm_latency_seconds\": " << r.warm_latency_seconds
        << ", \"warm_speedup\": " << r.warm_speedup << ", \"qps\": [";
    for (size_t q = 0; q < r.qps.size(); ++q) {
      out << "{\"readers\": " << r.qps[q].readers
          << ", \"qps\": " << r.qps[q].qps << "}"
          << (q + 1 < r.qps.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"gate\": {\"partitions\": " << params.gate_partitions
      << ", \"required_speedup\": " << params.gate_speedup
      << ", \"measured_speedup\": " << gate_measured
      << ", \"passed\": " << (gate_passed ? "true" : "false") << "}\n";
  out << "}\n";
  return out.good();
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (const char* env = std::getenv("QUERY_BENCH_SMOKE");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    smoke = true;
  }
  const BenchParams params = MakeParams(smoke);

  std::printf("Union-query latency and throughput, FileSampleStore%s\n",
              smoke ? " (smoke)" : "");
  std::printf("%-11s %-6s %12s %12s %9s  qps(readers:qps)\n", "partitions",
              "cache", "cold", "warm", "speedup");

  std::vector<SeriesRow> rows;
  double gate_measured = 0.0;
  for (const uint64_t partitions : params.partition_counts) {
    for (const bool cached : {true, false}) {
      rows.push_back(RunSeries(params, partitions, cached));
      PrintSeriesRow(rows.back());
      if (cached && partitions == params.gate_partitions) {
        gate_measured = rows.back().warm_speedup;
      }
    }
  }

  const bool gate_passed = gate_measured >= params.gate_speedup;
  if (!WriteJson("BENCH_query.json", params, rows, gate_measured,
                 gate_passed)) {
    std::fprintf(stderr, "failed to write BENCH_query.json\n");
    return 1;
  }
  std::printf("Wrote BENCH_query.json\n");
  if (!gate_passed) {
    std::fprintf(stderr,
                 "FAIL: warm speedup %.2fx at %llu partitions is below the "
                 "%.1fx gate\n",
                 gate_measured,
                 static_cast<unsigned long long>(params.gate_partitions),
                 params.gate_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sampwh::bench

int main(int argc, char** argv) { return sampwh::bench::Main(argc, argv); }
