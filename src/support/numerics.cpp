#include "support/numerics.hpp"

#include <algorithm>

namespace unicon {

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (std::isnan(d)) return d;  // never agreement; std::max would drop it
    m = std::max(m, d);
  }
  return m;
}

double l1_norm(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += std::fabs(x);
  return s;
}

}  // namespace unicon
