// Shared scaffolding for the figure-reproduction harnesses: scenario
// runners that sample partitioned data sets (optionally in parallel) and
// serially merge the per-partition samples, timing the two stages
// separately — matching the paper's sample-time / merge-time bar charts.
//
// All harnesses run at a laptop-friendly reduced scale by default and
// honor REPRO_FULL=1 to run the paper's full parameter grid (2^26
// elements, up to 1024 partitions, 3 repetitions).

#ifndef SAMPWH_BENCH_COMMON_H_
#define SAMPWH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/any_sampler.h"
#include "src/core/merge.h"
#include "src/workload/generators.h"

namespace sampwh::bench {

/// True when the REPRO_FULL environment variable is set to a truthy value.
bool FullScale();

/// Number of repetitions per scenario (paper: 3; reduced: 1).
int Repetitions();

struct ScenarioResult {
  /// Wall time of an idealized `simulated_workers`-node cluster sampling
  /// the partitions in parallel: the makespan of a longest-processing-time
  /// assignment of the measured per-partition times. This is the
  /// substitution for the paper's 2-machine/4-CPU testbed (DESIGN.md §2);
  /// on partitions >= workers it approaches sample_seconds_serial / W.
  double sample_seconds = 0.0;
  /// Sum of per-partition sampling times (single-CPU cost).
  double sample_seconds_serial = 0.0;
  double merge_seconds = 0.0;
  uint64_t merged_sample_size = 0;
  uint64_t total_elements = 0;
  uint64_t partitions = 0;
};

struct ScenarioSpec {
  SamplerKind algorithm = SamplerKind::kHybridReservoir;
  DataKind data = DataKind::kUnique;
  uint64_t total_elements = 1 << 22;
  uint64_t partitions = 1;
  /// F (HB/HR). The paper's main setting is 64 KiB = n_F 8192.
  uint64_t footprint_bound_bytes = 64 * 1024;
  /// p for HB.
  double exceedance_probability = 1e-3;
  /// Fixed rate for SB, chosen to land near n_F for comparability.
  double sb_rate = 0.0;  // 0: derive as n_F / partition_size (capped at 1)
  /// Size of the simulated sampling cluster (paper: 2 machines with dual
  /// CPUs = 4 workers). Overridable via the REPRO_WORKERS env variable.
  uint64_t simulated_workers = 4;
  uint64_t seed = 20060403;
};

/// REPRO_WORKERS env value, defaulting to `fallback`.
uint64_t SimulatedWorkers(uint64_t fallback = 4);

/// Usable hardware thread count for bench metadata and sizing.
/// std::thread::hardware_concurrency() is allowed to return 0 ("unknown")
/// and, under some container runtimes, reports a value that ignores the
/// cgroup CPU quota; fall back to sysconf(_SC_NPROCESSORS_ONLN) and
/// finally to 1 so benches never report or divide by zero.
unsigned HardwareThreads();

/// Samples every partition of the scenario (serially, timing aggregate CPU
/// work as the paper's instrumented executables did), then merges the
/// partition samples with serial pairwise merges (SB: rate-equalized
/// union). Returns per-stage wall times and the merged sample size.
ScenarioResult RunScenario(const ScenarioSpec& spec);

/// The paper's serial pairwise merges: a left fold of MergeSamples over
/// `samples` on one RNG stream. The figure harnesses time this; the
/// library's multiway merge is the merge tree (MergeAll).
Result<PartitionSample> LeftFoldMerge(
    const std::vector<const PartitionSample*>& samples,
    const MergeOptions& options, Pcg64& rng);

/// Mean of `reps` runs of the scenario with distinct seeds.
ScenarioResult RunScenarioAveraged(const ScenarioSpec& spec, int reps);

/// Formats seconds with millisecond resolution.
std::string FormatSeconds(double s);

/// Prints an aligned row of columns to stdout.
void PrintRow(const std::vector<std::string>& columns,
              const std::vector<int>& widths);

}  // namespace sampwh::bench

#endif  // SAMPWH_BENCH_COMMON_H_
