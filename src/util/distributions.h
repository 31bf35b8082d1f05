// Non-uniform random variate generation built from scratch (cf. Devroye
// 1986, the paper's reference [5]): binomial (inversion + Hörmann's BTRS
// rejection), geometric skips for fast Bernoulli streams, hypergeometric
// (mode-centered inversion on the paper's recurrence Eq. 3), and Zipf.

#ifndef SAMPWH_UTIL_DISTRIBUTIONS_H_
#define SAMPWH_UTIL_DISTRIBUTIONS_H_

#include <cstdint>
#include <vector>

#include "src/util/random.h"

namespace sampwh {

/// Draws Binomial(n, p). Dispatches between exact CDF inversion (small
/// n*p) and the BTRS transformed-rejection algorithm (Hörmann 1993) for
/// large n*p; both are exact samplers. Used by purgeBernoulli (Fig. 3) to
/// thin (value, count) pairs without expanding them; a count-1 pair is
/// decided there by this inversion's one draw and compare, inlined.
uint64_t SampleBinomial(Pcg64& rng, uint64_t n, double p);

/// Number of failures before the first success in Bernoulli(p) trials,
/// i.e. Geometric(p) on {0, 1, 2, ...}. Lets a Bern(p) stream sampler jump
/// directly between successive inclusions instead of flipping a coin per
/// element. Built once per rate: the inversion's denominator log1p(-p) is
/// computed in the constructor, and each draw is floor(log(U) / log1p(-p))
/// with that same division, so a skip is bit-identical to one that
/// recomputes the logarithm. At p = 1 every skip is 0 and draws nothing.
class GeometricSkip {
 public:
  /// p in (0, 1].
  explicit GeometricSkip(double p);

  uint64_t Sample(Pcg64& rng) const;

 private:
  double p_;
  double log1p_minus_p_;  // log1p(-p); -inf at p = 1, never divided by
};

/// The hypergeometric distribution of Eq. (2): P{L = l} with
///   P(l) = C(n1, l) C(n2, k - l) / C(n1 + n2, k),
/// the law of the number of elements a size-k simple random sample of
/// D1 ∪ D2 takes from D1. Provides pmf evaluation, full pmf vectors for
/// alias-table construction (the paper's repeated-merge optimization), and
/// exact sampling.
class HypergeometricDistribution {
 public:
  /// n1, n2: the two partition sizes |D1|, |D2|; k: merged sample size,
  /// k <= n1 + n2.
  HypergeometricDistribution(uint64_t n1, uint64_t n2, uint64_t k);

  uint64_t n1() const { return n1_; }
  uint64_t n2() const { return n2_; }
  uint64_t k() const { return k_; }

  /// Smallest / largest l with P(l) > 0: max(0, k - n2) and min(k, n1).
  uint64_t support_min() const { return support_min_; }
  uint64_t support_max() const { return support_max_; }

  /// The mode of the distribution.
  uint64_t Mode() const;

  /// P{L = l}; 0 outside the support. Evaluated from a log-space anchor and
  /// the recurrence P(l+1)/P(l) = (k-l)(n1-l) / ((l+1)(n2-k+l+1)) (Eq. 3).
  double Pmf(uint64_t l) const;

  /// The full vector [P(support_min), ..., P(support_max)], computed with
  /// one pass of the Eq. (3) recurrence; feed this to an alias table for O(1)
  /// repeated generation (§4.2). The merges draw by Sample instead;
  /// bench_ablation_hypergeo measures one against the other.
  std::vector<double> PmfVector() const;

  /// Draws L by inversion zig-zagging outward from the mode, so the
  /// expected number of pmf evaluations is O(sqrt(variance)) rather than
  /// O(k). Exact.
  uint64_t Sample(Pcg64& rng) const;

 private:
  uint64_t n1_, n2_, k_;
  uint64_t support_min_, support_max_;
};

/// Zipf(s) generator over {1, ..., n}: P{V = v} ∝ 1 / v^s. Builds the exact
/// cumulative table once (O(n) setup, O(log n) per draw); the paper's
/// Zipfian workload uses n = 4000.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double s);

  uint64_t n() const { return n_; }
  double s() const { return s_; }

  /// Draws a Zipf-distributed value in [1, n].
  uint64_t Sample(Pcg64& rng) const;

 private:
  uint64_t n_;
  double s_;
  std::vector<double> cdf_;  // cdf_[i] = P{V <= i + 1}
};

}  // namespace sampwh

#endif  // SAMPWH_UTIL_DISTRIBUTIONS_H_
