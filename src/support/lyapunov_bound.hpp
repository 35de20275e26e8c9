// Lyapunov-certificate truncation for uniformization-based solvers.
//
// Fox-Glynn truncation (fox_glynn.hpp) sizes the iteration count purely
// from the Poisson parameter lambda = E t: the window [left, right] grows
// like lambda, so a long horizon forces ~lambda sweeps even when the value
// iteration reached its fixed point ages earlier.  Salamati, Soudjani and
// Majumdar (arXiv:1909.06112) observe that a Lyapunov certificate for the
// *model* bounds how much the steps beyond m can still move the answer:
// once that bound drops below the remaining error budget, the iteration
// may stop — an effective truncation k_lyapunov that depends on the
// model's mixing behaviour instead of the time bound.
//
// Our certificate is the survival iterate of the non-goal restriction N of
// the uniformized kernel (max over nondeterminism, so one certificate
// covers both objectives):
//
//     u_0 = 1 on non-goal/non-avoid states, 0 elsewhere;  u_{j+1} = N u_j
//     ubar_j = sup_s u_j(s)
//
// ubar is submultiplicative (ubar_{a+b} <= ubar_a ubar_b), so the partial
// records bound the whole series:
//
//     sum_{m>=0} ubar_m  <=  (sum_{m<j} ubar_m) / (1 - ubar_j)    (*)
//
// The solvers use (*) two ways (DESIGN.md Sec. 14):
//  - CTMDP backward VI: below the Poisson window the operator T is
//    homogeneous and the difference d = Tq - q vanishes on goal/avoid
//    states, so |T^m d| <= ||d|| u_m and stopping after the sweep with
//    sup-delta ||d|| forfeits at most ||d|| * sum_m ubar_m.
//  - CTMC transient fold: the residual r_m = v_inf - v_m of the absorbing
//    chain satisfies 0 <= r_m <= u_m, so folding the un-accumulated window
//    mass onto the current iterate errs by at most tail_mass * ubar_m.
//
// The requested epsilon is split in half when the certificate engages:
// the Poisson window is recomputed at epsilon/2 and the certified stop may
// spend the other epsilon/2, so the reported residual_bound stays <=
// epsilon.  Advancing u costs one extra sweep per step, so a horizon only
// probes while the sweeps it has paid for are fewer than the sweeps a stop
// could still skip (LyapunovSeries::within_budget): a certificate that
// never fires costs at most the sweeps it could have saved.  On top of
// that a probe cap disengages the certificate (and frees u) when the model
// shows no contraction.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "support/fox_glynn.hpp"

namespace unicon {

/// Which truncation-bound provider sizes (and may cut short) the sweep.
enum class Truncation : std::uint8_t {
  Auto,      ///< Lyapunov when the horizon is long enough to pay for it
  FoxGlynn,  ///< Poisson window only (the historical behaviour)
  Lyapunov,  ///< Poisson window at epsilon/2 + certified stop at epsilon/2
};

/// Stable name ("auto", "fox-glynn", "lyapunov").
const char* truncation_name(Truncation mode);

/// Parses a truncation name as accepted by --truncation / the server
/// envelope.  Throws ModelError on an unknown name, listing the valid ones.
Truncation parse_truncation(const std::string& name);

/// Auto engages the certificate only when the epsilon-window starts above
/// this step: shorter horizons have almost no below-window sweeps to save,
/// and keeping them on the pure Fox-Glynn path preserves bit-identical
/// results for every short-horizon query.
inline constexpr std::uint64_t kLyapunovAutoEngageLeft = 1024;

/// Sweeps the certificate keeps paying for the extra u-advance before
/// demanding contraction (ubar <= 1/2); beyond the cap a non-contracting
/// model disengages and continues on the plain Fox-Glynn schedule.
inline constexpr std::uint64_t kLyapunovProbeCap = 4096;

/// The resolved truncation policy for one solve.
struct TruncationPlan {
  /// FoxGlynn or Lyapunov — never Auto.
  Truncation resolved = Truncation::FoxGlynn;
  /// Error budget spent on the Poisson window (epsilon, or epsilon/2 when
  /// the certificate engaged).
  double window_epsilon = 0.0;
  /// Error budget the certified stop may spend (0 when not engaged).
  double stop_epsilon = 0.0;
  /// The window to iterate with, computed at window_epsilon.
  PoissonWindow window;
  /// Right/left truncation points of the *full-epsilon* Fox-Glynn window —
  /// the baseline k_foxglynn the telemetry compares against.
  std::uint64_t fox_glynn_left = 0;
  std::uint64_t fox_glynn_right = 0;

  bool engaged() const { return resolved == Truncation::Lyapunov; }
};

/// Resolves @p requested for a solve with Poisson parameter @p lambda and
/// total budget @p epsilon.  Auto engages when the full-epsilon window's
/// left point exceeds kLyapunovAutoEngageLeft; an explicit Lyapunov request
/// engages whenever there is any below-window sweep to save (left > 1).
/// Throws exactly where PoissonWindow::compute does.
TruncationPlan plan_truncation(Truncation requested, double lambda, double epsilon);

/// Scalar contraction record of the survival iterate: ubar_j = sup u_j for
/// j = 1..size(), with prefix sums answering the series bound (*) above.
/// The record is a pure function of (kernel, goal, avoid) — it does not
/// depend on the time bound — so one record serves every horizon of a
/// batch solve at its own age, reproducing each single-horizon stop
/// decision exactly.
class LyapunovSeries {
 public:
  LyapunovSeries(double stop_epsilon, std::uint64_t probe_cap = kLyapunovProbeCap)
      : stop_epsilon_(stop_epsilon), probe_cap_(probe_cap) {
    psum_.push_back(0.0);
    psum_.push_back(1.0);  // ubar_0 = 1
  }

  /// Appends ubar_{size()+1} = @p u_sup (the sup of the freshly advanced
  /// iterate).  NaN is recorded as-is: every certificate query on a NaN
  /// entry answers "not certified", so a poisoned iterate can never
  /// manufacture a stop.
  void record(double u_sup) {
    ubar_.push_back(u_sup);
    psum_.push_back(psum_.back() + u_sup);
  }

  std::uint64_t size() const { return ubar_.size(); }
  double stop_epsilon() const { return stop_epsilon_; }
  std::uint64_t probe_cap() const { return probe_cap_; }

  /// ubar_age for age in [1, size()].
  double ubar(std::uint64_t age) const { return ubar_[age - 1]; }

  /// Upper bound on sum_{m>=0} ubar_m from the first @p age records;
  /// +inf while ubar_age >= 1 (or NaN).
  double series_bound(std::uint64_t age) const {
    const double last = ubar_[age - 1];
    if (!(last < 1.0)) return std::numeric_limits<double>::infinity();
    return psum_[age] / (1.0 - last);
  }

  /// True when stopping after a sweep with sup-delta @p delta at @p age
  /// advances is certified within the stop budget.  False for NaN delta.
  bool certifies(double delta, std::uint64_t age) const {
    return age >= 1 && delta * series_bound(age) <= stop_epsilon_;
  }

  /// The certified error actually forfeited by such a stop (reported in
  /// residual_bound on top of the window epsilon).
  double stop_error(double delta, std::uint64_t age) const {
    return delta * series_bound(age);
  }

  /// True when a run reaching @p age should give up on the certificate:
  /// the probe cap is reached and the model has shown no contraction.
  bool should_disengage(std::uint64_t age) const {
    return age >= probe_cap_ && !(ubar_[probe_cap_ - 1] <= 0.5);
  }

  /// The probe budget: a horizon that has paid for @p probes survival
  /// sweeps checks the certificate (and advances the record) only while
  /// they are fewer than the @p skippable value sweeps a stop would still
  /// save.  Probes grow and skippable sweeps shrink step by step, so once
  /// false it stays false; and it depends on the step alone, so batch,
  /// single-t and resumed solves probe and stop at the same steps.
  static bool within_budget(std::uint64_t probes, std::uint64_t skippable) {
    return probes < skippable;
  }

 private:
  double stop_epsilon_ = 0.0;
  std::uint64_t probe_cap_ = kLyapunovProbeCap;
  std::vector<double> ubar_;  // ubar_[j-1] = ubar_j
  std::vector<double> psum_;  // psum_[j] = sum_{m<j} ubar_m
};

}  // namespace unicon
