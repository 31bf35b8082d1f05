// Ablation (§4.2): drawing the HRMerge split L ~ Hypergeometric(n1, n2, k)
// by mode-centered inversion versus through a precomputed alias table. The
// paper recommends the alias method when many merges reuse one
// distribution (symmetric pairwise merge trees); this bench quantifies the
// per-draw gap and the table-construction cost that must be amortized.

#include <map>
#include <tuple>

#include <benchmark/benchmark.h>

#include "src/core/merge.h"
#include "bench/alias_table.h"
#include "src/util/distributions.h"
#include "src/util/random.h"

namespace sampwh {
namespace {

void BM_HypergeoInversion(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t k = static_cast<uint64_t>(state.range(1));
  const HypergeometricDistribution dist(n, n, k);
  Pcg64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypergeoInversion)
    ->Args({32768, 64})
    ->Args({32768, 1024})
    ->Args({32768, 8192})
    ->Args({1 << 22, 8192});

void BM_HypergeoAliasSampleOnly(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t k = static_cast<uint64_t>(state.range(1));
  const HypergeometricDistribution dist(n, n, k);
  const AliasTable table(dist.PmfVector());
  Pcg64 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.support_min() + table.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypergeoAliasSampleOnly)
    ->Args({32768, 64})
    ->Args({32768, 1024})
    ->Args({32768, 8192})
    ->Args({1 << 22, 8192});

void BM_HypergeoAliasConstruction(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t k = static_cast<uint64_t>(state.range(1));
  const HypergeometricDistribution dist(n, n, k);
  for (auto _ : state) {
    AliasTable table(dist.PmfVector());
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_HypergeoAliasConstruction)
    ->Args({32768, 64})
    ->Args({32768, 8192});

// The end-to-end §4.2 scenario: repeated symmetric merges drawing from the
// same distribution, by inversion and through alias tables cached per
// (n1, n2, k).
void BM_RepeatedSplitsUncached(benchmark::State& state) {
  Pcg64 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SampleHypergeometricSplit(32768, 32768, 8192, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RepeatedSplitsUncached);

// Alias tables for the split distributions met so far, each built once.
class AliasTables {
 public:
  uint64_t Sample(uint64_t n1, uint64_t n2, uint64_t k, Pcg64& rng) {
    auto it = tables_.find({n1, n2, k});
    if (it == tables_.end()) {
      const HypergeometricDistribution dist(n1, n2, k);
      it = tables_
               .emplace(std::make_tuple(n1, n2, k),
                        Entry{dist.support_min(),
                              AliasTable(dist.PmfVector())})
               .first;
    }
    return it->second.support_min + it->second.table.Sample(rng);
  }

 private:
  struct Entry {
    uint64_t support_min;
    AliasTable table;
  };
  std::map<std::tuple<uint64_t, uint64_t, uint64_t>, Entry> tables_;
};

void BM_RepeatedSplitsCached(benchmark::State& state) {
  Pcg64 rng(4);
  AliasTables tables;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tables.Sample(32768, 32768, 8192, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RepeatedSplitsCached);

}  // namespace
}  // namespace sampwh

BENCHMARK_MAIN();
