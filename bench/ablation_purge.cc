// Ablation: purgeReservoir. The paper's Fig. 4 runs reservoir sampling
// over the expanded sample: Vitter skips, a victim draw per insertion, and
// each victim found by scanning partial prefix sums, O(m) per eviction
// over m (value, count) entries. This library draws the same law — a
// uniform M-subset of the expanded bag — by sequential selection
// (Knuth's Algorithm S): one walk of the sorted entries, each element kept
// with probability need/rest, and one hypergeometric draw for an entry of
// many copies. The gap grows with the number of distinct values and with
// how far the purge cuts. {4096, 2048} with count-1 entries is the shape
// of one side of an HR merge node at F = 32 KiB.

#include <benchmark/benchmark.h>

#include "src/core/compact_histogram.h"
#include "src/core/purge.h"
#include "src/util/random.h"

namespace sampwh {
namespace {

CompactHistogram MakeInput(uint64_t distinct, uint64_t copies_per_value) {
  CompactHistogram h;
  for (uint64_t v = 0; v < distinct; ++v) {
    h.Insert(static_cast<Value>(v), copies_per_value);
  }
  return h;
}

// Args: {distinct values, purge target, copies per value}.
void PurgeArgs(benchmark::internal::Benchmark* b) {
  b->Args({1024, 512, 4})
      ->Args({8192, 4096, 4})
      ->Args({8192, 512, 4})
      ->Args({65536, 8192, 4})
      ->Args({4096, 2048, 1});
}

void BM_PurgeSelection(benchmark::State& state) {
  const uint64_t distinct = static_cast<uint64_t>(state.range(0));
  const uint64_t target = static_cast<uint64_t>(state.range(1));
  const uint64_t copies = static_cast<uint64_t>(state.range(2));
  const CompactHistogram input = MakeInput(distinct, copies);
  Pcg64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PurgeReservoirStreamed({&input}, target, rng).total_count());
  }
  state.SetItemsProcessed(state.iterations() * distinct * copies);
}
BENCHMARK(BM_PurgeSelection)->Apply(PurgeArgs);

void BM_PurgeLinearScan(benchmark::State& state) {
  const uint64_t distinct = static_cast<uint64_t>(state.range(0));
  const uint64_t target = static_cast<uint64_t>(state.range(1));
  const uint64_t copies = static_cast<uint64_t>(state.range(2));
  const CompactHistogram input = MakeInput(distinct, copies);
  Pcg64 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PurgeReservoirStreamedLinearScan({&input}, target, rng)
            .total_count());
  }
  state.SetItemsProcessed(state.iterations() * distinct * copies);
}
BENCHMARK(BM_PurgeLinearScan)->Apply(PurgeArgs);

void BM_PurgeBernoulliThinning(benchmark::State& state) {
  // For context: the cost of the competing purge primitive (Fig. 3) on the
  // same input.
  const uint64_t distinct = static_cast<uint64_t>(state.range(0));
  const CompactHistogram input = MakeInput(distinct, 4);
  Pcg64 rng(3);
  for (auto _ : state) {
    CompactHistogram copy = input;
    PurgeBernoulli(&copy, 0.25, rng);
    benchmark::DoNotOptimize(copy.total_count());
  }
  state.SetItemsProcessed(state.iterations() * distinct * 4);
}
BENCHMARK(BM_PurgeBernoulliThinning)->Arg(1024)->Arg(8192)->Arg(65536);

}  // namespace
}  // namespace sampwh

BENCHMARK_MAIN();
