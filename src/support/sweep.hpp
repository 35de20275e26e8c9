// Helpers shared by the uniformized value-iteration sweeps: the
// Algorithm-1 sweep (ctmdp/reachability.cpp) and the CTMC sweeps
// (ctmc/transient.cpp).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/errors.hpp"
#include "support/telemetry.hpp"

namespace unicon {

/// States checked per should_abort_sweep() probe inside a parallel sweep;
/// the strip-mined block structure leaves the per-state arithmetic (and
/// hence bit-identical results) untouched.  Sized so the probe (an atomic
/// load plus, with a deadline armed, a clock read) stays under ~2% of the
/// sweep cost while still stopping a sweep within tens of microseconds.
inline constexpr std::size_t kGuardBlock = 4096;

/// Stride, in 64-bit counters, between the per-worker row-update slots of a
/// sweep: one cache line each, so workers never share a line.
inline constexpr std::size_t kSlotStride = 8;

/// Bit-exact double comparison for the locking criterion.  `==` is not
/// enough: +0.0 == -0.0 compares true while the two buffers would hold
/// different bit patterns, breaking the no-copy invariant that a locked
/// row's value is identical in both double-buffers forever after.
inline bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

/// Pre-resolved per-worker row counters ("<prefix><worker>"), so the sweep
/// lambdas touch the registry lock-free: one relaxed fetch_add per worker
/// per sweep.  Empty (nullptr data) when telemetry is off.
inline std::vector<Counter*> worker_row_counters(Telemetry* telemetry, const std::string& prefix,
                                                 unsigned workers) {
  std::vector<Counter*> out;
  if (telemetry == nullptr) return out;
  out.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    out.push_back(&telemetry->counter(prefix + std::to_string(w)));
  }
  return out;
}

/// Throws NumericError naming @p where and the first non-finite entry of
/// an iterate (final values, or externally written checkpoint and resume
/// vectors at the solvers' trust boundaries).
inline void require_finite(const std::vector<double>& values, const char* where) {
  for (std::size_t s = 0; s < values.size(); ++s) {
    if (!std::isfinite(values[s])) {
      throw NumericError(std::string(where) + ": non-finite value at state " + std::to_string(s) +
                         " (NaN/Inf reached the iterate)");
    }
  }
}

}  // namespace unicon
