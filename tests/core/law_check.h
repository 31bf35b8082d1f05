// Exact-law checks for the purge and merge tests. A test enumerates small
// inputs, computes the exact law of an operation's output over the values
// 0..15 (each output keyed by its kept counts), and compares the observed
// frequencies of many seeded runs with that law by chi-square: case by
// case, and pooled over all the cases of a test.

#ifndef SAMPWH_TESTS_CORE_LAW_CHECK_H_
#define SAMPWH_TESTS_CORE_LAW_CHECK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/compact_histogram.h"
#include "src/stats/chi_square.h"
#include "src/util/special_functions.h"

namespace sampwh::law {

/// A histogram of counts[i] copies of value i.
inline CompactHistogram FromCounts(const std::vector<uint64_t>& counts) {
  CompactHistogram h;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) h.Insert(static_cast<Value>(i), counts[i]);
  }
  return h;
}

/// The kept counts of `out` over the values 0..15, as one number in base
/// 16 (every count here is at most 15).
inline uint64_t KeyOf(const CompactHistogram& out) {
  uint64_t key = 0;
  for (const auto& [v, n] : out.entries()) key += n << (4 * v);
  return key;
}

inline uint64_t Choose(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  uint64_t c = 1;
  for (uint64_t i = 1; i <= k; ++i) c = c * (n - k + i) / i;
  return c;
}

/// Every kept-count vector k <= counts with sum M, keyed as KeyOf keys the
/// output, with its probability prod C(c_i, k_i) / C(total, M): the law of
/// a uniform M-subset of the expanded bag.
inline std::map<uint64_t, double> ExactLaw(const std::vector<uint64_t>& counts,
                                           uint64_t M) {
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  const double denominator = static_cast<double>(Choose(total, M));
  std::map<uint64_t, double> law;
  std::vector<uint64_t> k(counts.size(), 0);
  // Odometer over the k vectors; those summing to M are the support.
  for (;;) {
    uint64_t sum = 0;
    uint64_t key = 0;
    double ways = 1.0;
    for (size_t i = 0; i < k.size(); ++i) {
      sum += k[i];
      key += k[i] << (4 * i);
      ways *= static_cast<double>(Choose(counts[i], k[i]));
    }
    if (sum == M) law[key] = ways / denominator;
    size_t i = 0;
    while (i < k.size() && k[i] == counts[i]) k[i++] = 0;
    if (i == k.size()) break;
    ++k[i];
  }
  return law;
}

/// Running chi-square evidence over many cases: each case must pass on its
/// own at `kCaseAlpha`, and the summed statistic must pass against the
/// summed degrees of freedom, which catches a small bias spread over many
/// cases.
class LawCheck {
 public:
  static constexpr double kCaseAlpha = 1e-6;
  static constexpr double kPooledAlpha = 1e-4;

  /// Draws `runs` outputs with `draw` and compares their frequencies with
  /// `law`. An output outside the law's support fails at once.
  template <typename Draw>
  void Check(const std::map<uint64_t, double>& law, uint64_t runs,
             Draw&& draw) {
    std::map<uint64_t, size_t> cell;
    std::vector<double> probabilities;
    for (const auto& [key, p] : law) {
      cell[key] = probabilities.size();
      probabilities.push_back(p);
    }
    std::vector<uint64_t> observed(probabilities.size(), 0);
    for (uint64_t run = 0; run < runs; ++run) {
      const auto it = cell.find(draw());
      ASSERT_NE(it, cell.end()) << "an output outside the law's support";
      ++observed[it->second];
    }
    runs_ += runs;
    if (observed.size() < 2) return;
    const ChiSquareResult r = ChiSquareGoodnessOfFit(observed, probabilities);
    EXPECT_GT(r.p_value, kCaseAlpha)
        << "chi2=" << r.statistic << " df=" << r.degrees_of_freedom;
    statistic_ += r.statistic;
    degrees_of_freedom_ += r.degrees_of_freedom;
  }

  void ExpectPooledFit() const {
    const double p = RegularizedUpperIncompleteGamma(
        degrees_of_freedom_ / 2, statistic_ / 2);
    EXPECT_GT(p, kPooledAlpha) << "pooled chi2=" << statistic_
                               << " df=" << degrees_of_freedom_;
  }

  uint64_t runs() const { return runs_; }

 private:
  double statistic_ = 0.0;
  double degrees_of_freedom_ = 0.0;
  uint64_t runs_ = 0;
};

/// Enough runs that every output of `law` is expected at least 10 times.
inline uint64_t RunsFor(const std::map<uint64_t, double>& law) {
  double smallest = 1.0;
  for (const auto& [key, p] : law) smallest = std::min(smallest, p);
  return static_cast<uint64_t>(std::ceil(10.0 / smallest));
}

}  // namespace sampwh::law

#endif  // SAMPWH_TESTS_CORE_LAW_CHECK_H_
