#include "bench/common.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "src/core/sample.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace sampwh::bench {

bool FullScale() {
  const char* env = std::getenv("REPRO_FULL");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

int Repetitions() { return FullScale() ? 3 : 1; }

uint64_t SimulatedWorkers(uint64_t fallback) {
  const char* env = std::getenv("REPRO_WORKERS");
  if (env == nullptr || env[0] == '\0') return fallback;
  const unsigned long long parsed = std::strtoull(env, nullptr, 10);
  return parsed >= 1 ? parsed : fallback;
}

unsigned HardwareThreads() {
  const unsigned reported = std::thread::hardware_concurrency();
  if (reported >= 1) return reported;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online >= 1) return static_cast<unsigned>(online);
  return 1;
}

namespace {

// Makespan of a longest-processing-time greedy assignment of
// per-partition sampling times onto `workers` identical machines.
double ParallelMakespan(std::vector<double> times, uint64_t workers) {
  if (times.empty()) return 0.0;
  std::sort(times.begin(), times.end(), std::greater<double>());
  std::vector<double> load(std::min<uint64_t>(workers, times.size()), 0.0);
  for (const double t : times) {
    auto lightest = std::min_element(load.begin(), load.end());
    *lightest += t;
  }
  return *std::max_element(load.begin(), load.end());
}

}  // namespace

Result<PartitionSample> LeftFoldMerge(
    const std::vector<const PartitionSample*>& samples,
    const MergeOptions& options, Pcg64& rng) {
  if (samples.empty()) {
    return Status::InvalidArgument("LeftFoldMerge of zero samples");
  }
  PartitionSample acc = *samples[0];
  for (size_t i = 1; i < samples.size(); ++i) {
    SAMPWH_ASSIGN_OR_RETURN(acc,
                            MergeSamples(acc, *samples[i], options, rng));
  }
  return acc;
}

ScenarioResult RunScenario(const ScenarioSpec& spec) {
  SAMPWH_CHECK(spec.partitions >= 1);
  const uint64_t per_partition = spec.total_elements / spec.partitions;
  SAMPWH_CHECK(per_partition >= 1);

  SamplerConfig config;
  config.footprint_bound_bytes = spec.footprint_bound_bytes;
  config.exceedance_probability = spec.exceedance_probability;
  config.kind = spec.algorithm;
  config.expected_partition_size = per_partition;
  if (spec.algorithm == SamplerKind::kStratifiedBernoulli) {
    double rate = spec.sb_rate;
    if (rate <= 0.0) {
      const double n_f = static_cast<double>(
          MaxSampleSizeForFootprint(spec.footprint_bound_bytes));
      rate = n_f / static_cast<double>(per_partition);
      if (rate > 1.0) rate = 1.0;
    }
    config.bernoulli_rate = rate;
  }

  Pcg64 seeder(spec.seed);
  ScenarioResult result;
  result.partitions = spec.partitions;
  result.total_elements = per_partition * spec.partitions;

  // --- Sampling stage (per-partition, independent) -----------------------
  // Each partition is timed on its own; partitions are independent, so an
  // idealized W-worker cluster finishes in the makespan of their greedy
  // assignment — the substitution for the paper's testbed parallelism.
  std::vector<PartitionSample> samples;
  samples.reserve(spec.partitions);
  std::vector<double> partition_times;
  partition_times.reserve(spec.partitions);
  for (uint64_t p = 0; p < spec.partitions; ++p) {
    DataGenerator gen =
        DataGenerator::Make(spec.data, per_partition, p, spec.seed);
    AnySampler sampler(config, seeder.Fork(p));
    WallTimer partition_timer;
    while (gen.HasNext()) sampler.Add(gen.Next());
    samples.push_back(sampler.Finalize());
    const double t = partition_timer.ElapsedSeconds();
    partition_times.push_back(t);
    result.sample_seconds_serial += t;
  }
  result.sample_seconds =
      ParallelMakespan(partition_times, spec.simulated_workers);

  // --- Merge stage (serial pairwise, as in the paper's experiments) ------
  WallTimer merge_timer;
  std::vector<const PartitionSample*> pointers;
  pointers.reserve(samples.size());
  for (const PartitionSample& s : samples) pointers.push_back(&s);
  Pcg64 merge_rng = seeder.Fork(0xBEEF);
  if (spec.algorithm == SamplerKind::kStratifiedBernoulli) {
    const auto merged = UnionBernoulli(pointers, merge_rng);
    SAMPWH_CHECK(merged.ok());
    result.merged_sample_size = merged.value().size();
  } else {
    MergeOptions merge_options;
    merge_options.footprint_bound_bytes = spec.footprint_bound_bytes;
    merge_options.exceedance_probability = spec.exceedance_probability;
    const auto merged = LeftFoldMerge(pointers, merge_options, merge_rng);
    SAMPWH_CHECK(merged.ok());
    result.merged_sample_size = merged.value().size();
  }
  result.merge_seconds = merge_timer.ElapsedSeconds();
  return result;
}

ScenarioResult RunScenarioAveraged(const ScenarioSpec& spec, int reps) {
  ScenarioResult total;
  for (int r = 0; r < reps; ++r) {
    ScenarioSpec run = spec;
    run.seed = spec.seed + static_cast<uint64_t>(r) * 7919;
    const ScenarioResult one = RunScenario(run);
    total.sample_seconds += one.sample_seconds;
    total.sample_seconds_serial += one.sample_seconds_serial;
    total.merge_seconds += one.merge_seconds;
    total.merged_sample_size += one.merged_sample_size;
    total.total_elements = one.total_elements;
    total.partitions = one.partitions;
  }
  total.sample_seconds /= reps;
  total.sample_seconds_serial /= reps;
  total.merge_seconds /= reps;
  total.merged_sample_size /= static_cast<uint64_t>(reps);
  return total;
}

std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}

void PrintRow(const std::vector<std::string>& columns,
              const std::vector<int>& widths) {
  SAMPWH_CHECK(columns.size() == widths.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%-*s", widths[i], columns[i].c_str());
  }
  std::printf("\n");
}

}  // namespace sampwh::bench
