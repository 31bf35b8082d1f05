// Ablation: binomial variate generation — exact CDF inversion versus
// Hörmann's BTRS transformed rejection — around the library's np = 30
// crossover. purgeBernoulli thins each (value, count) pair of more than one
// copy with one binomial draw; a count-1 pair is one uniform compared with
// the inversion's pmf(0), computed once per purge
// (BM_BernoulliSubsampleSingletons).

#include <benchmark/benchmark.h>

#include "src/core/compact_histogram.h"
#include "src/core/purge.h"
#include "src/util/distributions.h"
#include "src/util/random.h"

namespace sampwh {
namespace {

// The public SampleBinomial dispatches on np; to compare the raw methods we
// pick parameter points solidly inside each regime and also time the
// dispatcher at the crossover.
void BM_BinomialSmallNp(benchmark::State& state) {
  // np = 5: inversion regime.
  Pcg64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleBinomial(rng, 100, 0.05));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialSmallNp);

void BM_BinomialNearCrossover(benchmark::State& state) {
  // np = 29 vs np = 31 straddle the dispatch threshold.
  Pcg64 rng(2);
  const double p = state.range(0) == 0 ? 0.029 : 0.031;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleBinomial(rng, 1000, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialNearCrossover)->Arg(0)->Arg(1);

void BM_BinomialLargeNp(benchmark::State& state) {
  // np = 10^4: BTRS regime; inversion here would walk ~10^4 terms.
  Pcg64 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleBinomial(rng, 100000, 0.1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialLargeNp);

void BM_BinomialHalf(benchmark::State& state) {
  // Worst case for symmetry tricks: p = 0.5, large n.
  Pcg64 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleBinomial(rng, 1 << 20, 0.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialHalf);

void BM_PurgeStylePairThinning(benchmark::State& state) {
  // The purgeBernoulli inner loop: thin a (value, count) pair with one
  // binomial draw; count drawn from a skewed distribution of pair sizes.
  Pcg64 rng(5);
  const uint64_t counts[] = {1, 1, 1, 2, 3, 8, 100, 5000};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SampleBinomial(rng, counts[i++ & 7], 0.37));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PurgeStylePairThinning);

void BM_BernoulliSubsampleSingletons(benchmark::State& state) {
  // A merge-sized thinning: 4,096 count-1 entries (distinct values) at
  // q = 0.47.
  CompactHistogram sample;
  for (Value v = 0; v < 4096; ++v) sample.Insert(v * 7, 1);
  Pcg64 rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BernoulliSubsample(sample, 0.47, rng));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BernoulliSubsampleSingletons);

}  // namespace
}  // namespace sampwh

BENCHMARK_MAIN();
