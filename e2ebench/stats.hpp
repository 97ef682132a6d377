// Order statistics shared by the benchmark's reports.
#pragma once

#include <algorithm>
#include <vector>

namespace e2e {

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  // frac == 0 returns v[lo] exactly, also when v[hi] is infinite.
  return frac == 0.0 ? v[lo] : v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace e2e
