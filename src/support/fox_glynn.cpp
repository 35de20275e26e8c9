#include "support/fox_glynn.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "support/errors.hpp"

namespace unicon {

namespace {

std::string short_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

double poisson_pmf(std::uint64_t n, double lambda) {
  if (lambda == 0.0) return n == 0 ? 1.0 : 0.0;
  // lgamma_r, not std::lgamma: lgamma also writes the global signgam, a
  // data race between solver threads computing windows concurrently.
  int sign = 0;
  const double logp = -lambda + static_cast<double>(n) * std::log(lambda) -
                      ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
  return std::exp(logp);
}

PoissonWindow PoissonWindow::compute(double lambda, double epsilon) {
  if (!(lambda >= 0.0) || !std::isfinite(lambda)) throw ModelError("PoissonWindow: lambda must be finite and >= 0");
  if (!(epsilon > 0.0) || epsilon >= 1.0) throw ModelError("PoissonWindow: epsilon must be in (0, 1)");

  PoissonWindow w;
  w.lambda_ = lambda;
  w.epsilon_ = epsilon;

  if (lambda == 0.0) {
    w.left_ = w.right_ = 0;
    w.weights_ = {1.0};
    w.total_mass_ = 1.0;
    w.suffix_mass_ = {1.0, 0.0};  // invariant: size weights + 1
    return w;
  }

  const auto mode = static_cast<std::uint64_t>(lambda);
  const double pmode = poisson_pmf(mode, lambda);

  // Expand outward from the mode, adding the larger of the two frontier
  // probabilities each step, until the accumulated mass reaches 1 - epsilon.
  // The frontier probabilities follow the ratio recurrences
  //   p(n+1) = p(n) * lambda / (n+1)      and      p(n-1) = p(n) * n / lambda.
  std::vector<double> up;    // p(mode+1), p(mode+2), ...
  std::vector<double> down;  // p(mode-1), p(mode-2), ...
  double up_p = pmode;       // last materialized probability above the mode
  double down_p = pmode;     // last materialized probability below the mode
  std::uint64_t hi = mode;
  std::uint64_t lo = mode;
  double mass = pmode;
  const double target = 1.0 - epsilon;

  while (mass < target) {
    const double next_up = up_p * lambda / static_cast<double>(hi + 1);
    const double next_down = lo > 0 ? down_p * static_cast<double>(lo) / lambda : 0.0;
    if (next_up <= 0.0 && next_down <= 0.0) {
      // Both frontier probabilities underflowed to zero before the window
      // reached 1 - epsilon: double precision cannot certify the requested
      // truncation error.  Report the achievable floor instead of quietly
      // returning a window with epsilon' = 1 - mass > epsilon — a silently
      // degraded window would invalidate every downstream residual bound.
      const double floor = 1.0 - mass;
      throw NumericError(
          "PoissonWindow: epsilon " + short_double(epsilon) + " is below the " +
          "accuracy floor achievable in double precision at lambda " +
          short_double(lambda) + "; smallest certifiable truncation error here is about " +
          short_double(floor) + " (window [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "] mass " + short_double(mass) + ")");
    }
    if (next_up >= next_down) {
      ++hi;
      up_p = next_up;
      up.push_back(next_up);
      mass += next_up;
    } else {
      --lo;
      down_p = next_down;
      down.push_back(next_down);
      mass += next_down;
    }
  }

  w.left_ = lo;
  w.right_ = hi;
  w.total_mass_ = mass;
  w.weights_.resize(hi - lo + 1);
  for (std::size_t i = 0; i < down.size(); ++i) w.weights_[down.size() - 1 - i] = down[i];
  w.weights_[down.size()] = pmode;
  for (std::size_t i = 0; i < up.size(); ++i) w.weights_[down.size() + 1 + i] = up[i];

  w.suffix_mass_.resize(w.weights_.size() + 1);
  w.suffix_mass_.back() = 0.0;
  for (std::size_t i = w.weights_.size(); i-- > 0;)
    w.suffix_mass_[i] = w.suffix_mass_[i + 1] + w.weights_[i];
  return w;
}

double PoissonWindow::tail_mass(std::uint64_t n) const {
  // Window-restricted semantics, consistent with total_mass(): psi() is
  // zero outside [left, right], so for n <= left the whole window mass is
  // the tail — the true Poisson mass of [n, left) was truncated away by
  // construction (bounded by epsilon) and is deliberately NOT resurrected
  // here; callers that normalize by total_mass() stay exact.  tail_mass(0)
  // == total_mass() always holds, including for the degenerate lambda == 0
  // window (a default-constructed window has no mass at all).
  if (suffix_mass_.empty()) return 0.0;
  if (n <= left_) return total_mass_;
  if (n > right_) return 0.0;
  return suffix_mass_[n - left_];
}

}  // namespace unicon
