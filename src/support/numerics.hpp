// Small numeric helpers used throughout the library.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

namespace unicon {

/// Compensated (Kahan) accumulator for long probability sums.
class KahanSum {
 public:
  void add(double x) {
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  double value() const { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// True iff |a - b| <= tol (absolute tolerance).
inline bool approx_equal(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

/// Clamps a probability-like value into [0, 1]; values outside by more than
/// @p slack indicate a bug and are reported by the callers.
inline double clamp01(double p) {
  if (p < 0.0) return 0.0;
  if (p > 1.0) return 1.0;
  return p;
}

/// a * b saturated to UINT64_MAX on overflow.  Budget-style comparisons
/// ("is k * n under the cap?") must not wrap: a wrapped product can land
/// below the cap and green-light an allocation of astronomical true size.
inline std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (b != 0 && a > kMax / b) return kMax;
  return a * b;
}

/// Running maximum that keeps a NaN once seen: @p x when it exceeds @p acc
/// or is NaN, else @p acc, so a NaN @p acc is never replaced by a later
/// finite value.  Equal to std::max(acc, x) when neither is NaN.  Sweep
/// deltas and sups fold through it, so a poisoned update reaches the
/// caller's finiteness check instead of being dropped.  Internal linkage
/// and no library call: the -mavx2 kernel TU calls it too, and must not
/// lend the other TUs an AVX2-encoded out-of-line copy.
static inline double latching_max(double acc, double x) {
  // NaN test first: a running fold then carries one max instruction from
  // step to step, and the never-taken branch stays off that chain (one
  // select on both conditions made the FTWC sweeps 5-8% slower).
  if (x != x) [[unlikely]] return x;
  return x > acc ? x : acc;  // a NaN acc compares false and stays
}

/// Maximum absolute difference between two equally sized vectors.  NaN
/// once any difference is NaN, so a poisoned entry never reads as agreement.
double max_abs_diff(std::span<const double> a, std::span<const double> b);

/// L1 norm of a vector.
double l1_norm(std::span<const double> v);

}  // namespace unicon
