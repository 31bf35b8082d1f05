#include "bench/alias_table.h"

#include <numeric>

#include "src/util/logging.h"

namespace sampwh {

AliasTable::AliasTable(const std::vector<double>& weights) {
  SAMPWH_CHECK(!weights.empty());
  const size_t n = weights.size();
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  SAMPWH_CHECK(total > 0.0);

  probability_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Vose's construction: scale weights so the average is 1, then pair each
  // underfull column with an overfull donor.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    SAMPWH_CHECK(weights[i] >= 0.0);
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }

  std::vector<size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }

  while (!small.empty() && !large.empty()) {
    const size_t s = small.back();
    small.pop_back();
    const size_t l = large.back();
    large.pop_back();
    probability_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are exactly 1 up to rounding.
  for (const size_t i : large) probability_[i] = 1.0;
  for (const size_t i : small) probability_[i] = 1.0;
}

size_t AliasTable::Sample(Pcg64& rng) const {
  const size_t i = static_cast<size_t>(rng.UniformInt(probability_.size()));
  return rng.NextDouble() < probability_[i] ? i : alias_[i];
}

}  // namespace sampwh
