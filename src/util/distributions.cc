#include "src/util/distributions.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/special_functions.h"

namespace sampwh {

namespace {

// Exact CDF inversion using the pmf recurrence
//   pmf(k+1) = pmf(k) * (n - k) / (k + 1) * p / (1 - p).
// Intended for n * p small enough that pmf(0) does not underflow.
uint64_t BinomialInversion(Pcg64& rng, uint64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  double pmf = std::exp(static_cast<double>(n) * std::log(q));
  double cdf = pmf;
  double u = rng.NextDouble();
  uint64_t k = 0;
  while (u > cdf && k < n) {
    pmf *= s * static_cast<double>(n - k) / static_cast<double>(k + 1);
    cdf += pmf;
    ++k;
    // Numerical guard: if pmf has decayed to zero the remaining tail mass
    // is below double precision; stop.
    if (pmf <= 0.0) break;
  }
  return k;
}

// BTRS: binomial transformed rejection with squeeze (Hörmann 1993).
// Requires p <= 0.5 and n * p >= 10.
uint64_t BinomialBtrs(Pcg64& rng, uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double spq = std::sqrt(nd * p * (1.0 - p));
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double vr = 0.92 - 4.2 / b;
  const double urvr = 0.86 * vr;
  const double m = std::floor((nd + 1.0) * p);
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / (1.0 - p));
  const double h = LogFactorial(static_cast<uint64_t>(m)) +
                   LogFactorial(static_cast<uint64_t>(nd - m));

  for (;;) {
    double v = rng.NextDouble();
    double u;
    if (v <= urvr) {
      u = v / vr - 0.43;
      const double us = 0.5 - std::fabs(u);
      return static_cast<uint64_t>(
          std::floor((2.0 * a / us + b) * u + c));
    }
    if (v >= vr) {
      u = rng.NextDouble() - 0.5;
    } else {
      u = v / vr - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = rng.NextDouble() * vr;
    }
    const double us = 0.5 - std::fabs(u);
    if (us < 0.013 && v > us) continue;  // squeeze reject
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    v = v * alpha / (a / (us * us) + b);
    const uint64_t k = static_cast<uint64_t>(kd);
    if (std::log(v) <=
        h - LogFactorial(k) - LogFactorial(n - k) + (kd - m) * lpq) {
      return k;
    }
  }
}

}  // namespace

uint64_t SampleBinomial(Pcg64& rng, uint64_t n, double p) {
  SAMPWH_CHECK(p >= 0.0 && p <= 1.0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - SampleBinomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < 30.0) {
    return BinomialInversion(rng, n, p);
  }
  return BinomialBtrs(rng, n, p);
}

GeometricSkip::GeometricSkip(double p)
    : p_(p), log1p_minus_p_(std::log1p(-p)) {
  SAMPWH_CHECK(p > 0.0 && p <= 1.0);
}

uint64_t GeometricSkip::Sample(Pcg64& rng) const {
  if (p_ >= 1.0) return 0;
  // Inversion: floor(log U / log(1 - p)) failures before the next success.
  // A division, not a multiply by a stored reciprocal: the reciprocal is
  // rounded, so the product could differ from the quotient in its last bit
  // and land on the other side of an integer.
  const double u = rng.NextDoubleOpen();
  const double g = std::floor(std::log(u) / log1p_minus_p_);
  // Guard against pathological rounding for p very close to 0.
  if (g < 0.0) return 0;
  if (g > 9.2e18) return UINT64_MAX;
  return static_cast<uint64_t>(g);
}

HypergeometricDistribution::HypergeometricDistribution(uint64_t n1,
                                                       uint64_t n2,
                                                       uint64_t k)
    : n1_(n1), n2_(n2), k_(k) {
  SAMPWH_CHECK(k <= n1 + n2);
  support_min_ = (k > n2) ? k - n2 : 0;
  support_max_ = std::min(k, n1);
}

uint64_t HypergeometricDistribution::Mode() const {
  // Mode = floor((k + 1)(n1 + 1) / (n1 + n2 + 2)), clamped to the support.
  const double m = std::floor(static_cast<double>(k_ + 1) *
                              static_cast<double>(n1_ + 1) /
                              static_cast<double>(n1_ + n2_ + 2));
  uint64_t mode = static_cast<uint64_t>(std::max(0.0, m));
  return std::clamp(mode, support_min_, support_max_);
}

double HypergeometricDistribution::Pmf(uint64_t l) const {
  if (l < support_min_ || l > support_max_) return 0.0;
  const double log_pmf = LogBinomialCoefficient(n1_, l) +
                         LogBinomialCoefficient(n2_, k_ - l) -
                         LogBinomialCoefficient(n1_ + n2_, k_);
  return std::exp(log_pmf);
}

std::vector<double> HypergeometricDistribution::PmfVector() const {
  // Anchor the Eq. (3) recurrence at the MODE rather than the support
  // minimum: for large populations P(support_min) underflows to zero in
  // double precision, and multiplying zero forward would wipe out the
  // whole vector. Relative to the mode, entries that underflow carry
  // negligible true mass; a final normalization restores sum == 1.
  const size_t size = static_cast<size_t>(support_max_ - support_min_ + 1);
  std::vector<double> pmf(size, 0.0);
  const uint64_t mode = Mode();
  const size_t mode_index = static_cast<size_t>(mode - support_min_);

  // Eq. (3): P(l+1) / P(l).
  auto ratio_up = [this](uint64_t l) {
    return static_cast<double>(k_ - l) * static_cast<double>(n1_ - l) /
           (static_cast<double>(l + 1) *
            static_cast<double>(n2_ - k_ + l + 1));
  };

  pmf[mode_index] = 1.0;
  double p = 1.0;
  for (uint64_t l = mode; l < support_max_; ++l) {
    p *= ratio_up(l);
    pmf[l - support_min_ + 1] = p;
  }
  p = 1.0;
  for (uint64_t l = mode; l > support_min_; --l) {
    p /= ratio_up(l - 1);
    pmf[l - support_min_ - 1] = p;
  }

  double total = 0.0;
  for (const double value : pmf) total += value;
  for (double& value : pmf) value /= total;
  return pmf;
}

uint64_t HypergeometricDistribution::Sample(Pcg64& rng) const {
  if (support_min_ == support_max_) return support_min_;
  const uint64_t mode = Mode();
  const double u = rng.NextDouble();

  double acc = Pmf(mode);
  if (u <= acc) return mode;

  // Zig-zag outward from the mode; the pmf is unimodal, so probability mass
  // is consumed in (nearly) decreasing order and the expected number of
  // steps is O(stddev).
  auto ratio_up = [this](uint64_t l) {
    // P(l+1) / P(l), Eq. (3).
    return static_cast<double>(k_ - l) * static_cast<double>(n1_ - l) /
           (static_cast<double>(l + 1) *
            static_cast<double>(n2_ - k_ + l + 1));
  };

  uint64_t left = mode;
  uint64_t right = mode;
  double pmf_left = acc;
  double pmf_right = acc;
  for (;;) {
    bool advanced = false;
    if (right < support_max_) {
      pmf_right *= ratio_up(right);
      ++right;
      acc += pmf_right;
      advanced = true;
      if (u <= acc) return right;
    }
    if (left > support_min_) {
      pmf_left /= ratio_up(left - 1);
      --left;
      acc += pmf_left;
      advanced = true;
      if (u <= acc) return left;
    }
    if (!advanced) {
      // u landed in the sliver of mass lost to floating-point rounding;
      // return the heavier boundary.
      return pmf_right >= pmf_left ? right : left;
    }
  }
}

ZipfGenerator::ZipfGenerator(uint64_t n, double s) : n_(n), s_(s) {
  SAMPWH_CHECK(n >= 1);
  SAMPWH_CHECK(s >= 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t v = 1; v <= n; ++v) {
    total += std::exp(-s * std::log(static_cast<double>(v)));
    cdf_[v - 1] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

uint64_t ZipfGenerator::Sample(Pcg64& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint64_t>(it - cdf_.begin()) + 1;
}

}  // namespace sampwh
