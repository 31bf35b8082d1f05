// Walker's alias method (Vose's O(n) construction). The paper (§4.2)
// recommends alias tables when many hypergeometric variates must be drawn
// from the same distribution, e.g. symmetric pairwise merge trees where each
// tree level reuses one split distribution. The library's merges draw their
// splits by inversion and reuse whole merge-tree nodes instead;
// bench_ablation_hypergeo measures the alias method against inversion.

#ifndef SAMPWH_BENCH_ALIAS_TABLE_H_
#define SAMPWH_BENCH_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/random.h"

namespace sampwh {

/// Samples an index i in [0, n) with P{i} proportional to weights[i], in
/// O(1) per draw after O(n) construction.
class AliasTable {
 public:
  /// `weights` must be non-empty with non-negative entries and positive sum.
  explicit AliasTable(const std::vector<double>& weights);

  size_t size() const { return probability_.size(); }

  /// Draws an index according to the weight distribution: pick a column I
  /// uniformly, return I with probability r_I and alias(I) otherwise.
  size_t Sample(Pcg64& rng) const;

  /// The per-column acceptance probability r_i (exposed for testing).
  double probability(size_t i) const { return probability_[i]; }
  /// The alias a_i of column i (exposed for testing).
  size_t alias(size_t i) const { return alias_[i]; }

 private:
  std::vector<double> probability_;
  std::vector<size_t> alias_;
};

}  // namespace sampwh

#endif  // SAMPWH_BENCH_ALIAS_TABLE_H_
