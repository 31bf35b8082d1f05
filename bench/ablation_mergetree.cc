// Ablation: multiway merge tree shape. The paper's experiments use serial
// pairwise merges (a left fold); the library merges up a balanced tree
// whose nodes draw from identity-derived RNGs (MergeAll), with the same
// statistical output law but a different cost structure. Measures HR
// merges of 64 equal partitions under both.
//
// Two single merges with an exhaustive side follow, at F = 16 KiB
// (n_F = 2,048): HBMerge of two exhaustive leaves of 2,048 distinct values,
// whose join breaks F, and HRMerge of such a leaf with a reservoir sample
// of 32,768 values.

#include <vector>

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "src/core/hybrid_bernoulli.h"
#include "src/core/hybrid_reservoir.h"
#include "src/core/merge.h"
#include "src/workload/generators.h"

namespace sampwh {
namespace {

constexpr uint64_t kPartitions = 64;
constexpr uint64_t kPerPartition = 32768;
constexpr uint64_t kF = 8 * 1024;  // n_F = 1024

const std::vector<PartitionSample>& Samples() {
  static const std::vector<PartitionSample> samples = [] {
    std::vector<PartitionSample> out;
    Pcg64 seeder(1);
    for (uint64_t p = 0; p < kPartitions; ++p) {
      HybridReservoirSampler::Options options;
      options.footprint_bound_bytes = kF;
      HybridReservoirSampler sampler(options, seeder.Fork(p));
      DataGenerator gen = DataGenerator::Make(DataKind::kUnique,
                                              kPerPartition, p, 1);
      while (gen.HasNext()) sampler.Add(gen.Next());
      out.push_back(sampler.Finalize());
    }
    return out;
  }();
  return samples;
}

std::vector<const PartitionSample*> Pointers() {
  std::vector<const PartitionSample*> pointers;
  for (const PartitionSample& s : Samples()) pointers.push_back(&s);
  return pointers;
}

void BM_MergeLeftFold(benchmark::State& state) {
  const auto pointers = Pointers();
  MergeOptions options;
  options.footprint_bound_bytes = kF;
  Pcg64 rng(2);
  for (auto _ : state) {
    auto merged = bench::LeftFoldMerge(pointers, options, rng);
    benchmark::DoNotOptimize(merged.ok());
  }
  state.SetItemsProcessed(state.iterations() * kPartitions);
}
BENCHMARK(BM_MergeLeftFold)->Unit(benchmark::kMillisecond);

void BM_MergeAllTree(benchmark::State& state) {
  const auto pointers = Pointers();
  MergeOptions options;
  options.footprint_bound_bytes = kF;
  uint64_t seed = 2;
  for (auto _ : state) {
    auto merged = MergeAll(pointers, options, seed++);
    benchmark::DoNotOptimize(merged.ok());
  }
  state.SetItemsProcessed(state.iterations() * kPartitions);
}
BENCHMARK(BM_MergeAllTree)->Unit(benchmark::kMillisecond);

constexpr uint64_t kLeafF = 16 * 1024;  // n_F = 2048
constexpr uint64_t kLeafValues = 2048;

// An exhaustive leaf: `kLeafValues` distinct values, which fill F exactly.
PartitionSample ExhaustiveLeaf(uint64_t part) {
  HybridBernoulliSampler::Options options;
  options.footprint_bound_bytes = kLeafF;
  options.expected_population_size = kLeafValues;
  HybridBernoulliSampler sampler(options, Pcg64(part));
  DataGenerator gen =
      DataGenerator::Make(DataKind::kUnique, kLeafValues, part, 1);
  while (gen.HasNext()) sampler.Add(gen.Next());
  return sampler.Finalize();
}

void RunSingleMerge(benchmark::State& state, const PartitionSample& s1,
                    const PartitionSample& s2, bool hr) {
  if (s1.phase() != SamplePhase::kExhaustive) {
    state.SkipWithError("left input is not exhaustive");
    return;
  }
  MergeOptions options;
  options.footprint_bound_bytes = kLeafF;
  Pcg64 rng(3);
  for (auto _ : state) {
    auto merged =
        hr ? HRMerge(s1, s2, options, rng) : HBMerge(s1, s2, options, rng);
    benchmark::DoNotOptimize(merged.ok());
  }
}

void BM_HBMergeExhaustiveLeaves(benchmark::State& state) {
  const PartitionSample s1 = ExhaustiveLeaf(100);
  const PartitionSample s2 = ExhaustiveLeaf(101);
  if (s2.phase() != SamplePhase::kExhaustive) {
    state.SkipWithError("right input is not exhaustive");
    return;
  }
  RunSingleMerge(state, s1, s2, /*hr=*/false);
}
BENCHMARK(BM_HBMergeExhaustiveLeaves)->Unit(benchmark::kMicrosecond);

void BM_HRMergeExhaustiveBesideReservoir(benchmark::State& state) {
  const PartitionSample leaf = ExhaustiveLeaf(102);
  HybridReservoirSampler::Options options;
  options.footprint_bound_bytes = kLeafF;
  HybridReservoirSampler sampler(options, Pcg64(103));
  DataGenerator gen = DataGenerator::Make(DataKind::kUnique, 32768, 103, 1);
  while (gen.HasNext()) sampler.Add(gen.Next());
  const PartitionSample reservoir = sampler.Finalize();
  RunSingleMerge(state, leaf, reservoir, /*hr=*/true);
}
BENCHMARK(BM_HRMergeExhaustiveBesideReservoir)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sampwh

BENCHMARK_MAIN();
