// Time-bounded reachability in CTMCs via Jensen uniformization.
//
// This is the classical machinery the paper's Figure 4 baseline relies on
// (ETMCC-style CTMC model checking): with the goal set B made absorbing and
// P the uniformized jump matrix of that chain at rate E, the probability
// to reach B from s within t is sum_n psi(n, E t) (P^n 1_B)(s), so every
// answer is one uniformization run, v_{i+1} = P v_i from the goal
// indicator with psi(i) v_i accumulated per time bound.  A goal state's
// entry of v_i is 1 forever, so the sweeps run over the non-goal ("live")
// rows only, with every goal column read from one shared constant slot.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "support/backend.hpp"
#include "support/bit_vector.hpp"
#include "support/lyapunov_bound.hpp"
#include "support/run_guard.hpp"

namespace unicon {

class Telemetry;

struct TransientOptions {
  /// Total truncation error budget for the Poisson series.
  double epsilon = 1e-6;
  /// Truncation-bound provider for timed_reachability (single and batch);
  /// see TimedReachabilityOptions::truncation and DESIGN.md Sec. 14.  When
  /// the certificate engages, epsilon is split: the window runs at
  /// epsilon/2 and the remaining mass is folded onto the current iterate
  /// once tail_mass * ubar drops under the other epsilon/2.  The fold is
  /// checked after sweep j only while those j survival sweeps are fewer
  /// than the right - j sweeps it would skip; one that never fires leaves
  /// the solve bitwise the FoxGlynn solve at epsilon/2.  A horizon whose
  /// fold provably cannot fire within that budget (the probe gate, DESIGN.md
  /// Sec. 14.2) pays for no survival sweep at all.
  Truncation truncation = Truncation::Auto;
  /// On-the-fly convergence locking: rows whose value is bitwise unchanged
  /// with all their successors locked are skipped from then on.  Values and
  /// iteration counts are bit-identical with locking on or off; once every
  /// row is locked the matrix sweeps stop entirely and only the Poisson
  /// accumulation continues.
  bool locking = true;
  /// Steady-state detection: once the iteration vector has converged to
  /// within early_termination_delta in sup norm, the remaining Poisson mass
  /// is folded in analytically and the loop stops.  Exact for absorbing
  /// chains up to the requested precision; a large win for long horizons.
  bool early_termination = false;
  double early_termination_delta = 1e-12;
  /// Worker threads for the per-iteration matrix sweeps.  0 picks
  /// hardware_concurrency, 1 is the serial path (no threads spawned).
  /// Results are bit-identical for every thread count: the sweep is a
  /// gather over precomputed rows with a fixed accumulation order per
  /// state.
  unsigned threads = 0;
  /// Compute backend for the matrix sweeps.  Auto resolves via
  /// UNICON_BACKEND (else Simd).  Simd runs the striped-lane gather kernel
  /// (AVX2 when available, portable stripes otherwise); Serial keeps the
  /// historical sequential per-row accumulation.  They differ by FP
  /// reassociation only (DESIGN.md Sec. 10).  Every backend is
  /// bit-identical to itself across all thread counts.
  Backend backend = Backend::Auto;
  /// Optional execution control, polled per uniformization step and every
  /// ~2k states inside parallel sweeps.  On a stop the solver returns a
  /// partial result: `status` names the cause, `residual_bound` bounds
  /// |reported - true| per state by the unaccumulated Poisson window mass
  /// (plus the window's truncation error).  Checkpoints publish the iterate,
  /// one entry per state, under the stage "ctmc_timed_reachability"; all
  /// goal states share one entry of the solver's iterate, so rewriting any
  /// goal entry rewrites it for every goal state.  Null = unguarded,
  /// bit-identical to pre-guard behaviour.
  RunGuard* guard = nullptr;
  /// Optional observability: a "ctmc_reachability" span (a batch reports a
  /// "ctmc_reachability_batch" span with one child per bound) with the
  /// Poisson window, iteration counts, the early-termination step and the
  /// truncation outcome, plus per-worker row counters
  /// ("ctmc.rows.worker<i>") batched once per sweep.  A live registry
  /// only observes — results stay bit-identical with telemetry on or off.
  Telemetry* telemetry = nullptr;
};

struct TransientResult {
  /// Probability per state.
  std::vector<double> probabilities;
  /// Number of jump-matrix applications the Poisson window demands (the
  /// right truncation bound).
  std::uint64_t iterations = 0;
  /// Applications actually performed (< iterations when steady-state
  /// detection fired).
  std::uint64_t iterations_executed = 0;
  /// Uniformization rate actually used: the maximal exit rate of the chain
  /// with the goal made absorbing (1 when that chain has no transitions).
  double uniform_rate = 0.0;
  /// Converged, or the RunGuard budget that stopped the solve early.
  RunStatus status = RunStatus::Converged;
  /// Sound per-state bound on |probabilities[s] - true value|; epsilon-ish
  /// when Converged, the unaccumulated window mass plus the window's own
  /// truncation error otherwise.
  double residual_bound = 0.0;
  /// Resolved truncation provider (never Auto).
  Truncation truncation = Truncation::FoxGlynn;
  /// Step at which the Lyapunov fold fired (effective truncation
  /// k_lyapunov); 0 when it never did.
  std::uint64_t k_lyapunov = 0;
  /// Survival sweeps this horizon's fold checks paid for (bounded by the
  /// probe budget, about right/2); 0 when the certificate was not engaged,
  /// and 0 when the probe gate proved that its fold cannot fire.
  std::uint64_t lyapunov_probes = 0;
  /// Row relaxations actually performed across the executed sweeps: live
  /// (non-goal) rows only, rows skipped by convergence locking excluded.
  std::uint64_t state_updates = 0;
  /// Rows locked by on-the-fly convergence detection at the end.  Goal rows
  /// are never swept and count as locked whenever locking is on.
  std::uint64_t locked_final = 0;
};

/// For every state s: probability to reach (and possibly leave again —
/// prevented by making @p goal absorbing internally) a goal state within
/// @p t time units, Pr(s, <=t, B).  The batch solve below with the single
/// horizon @p t.
TransientResult timed_reachability(const Ctmc& chain, const BitVector& goal,
                                   double t, const TransientOptions& options = {});

/// Multi-horizon timed reachability: one shared uniformization run
/// answering every time bound in @p times, results in input order.  The
/// step vectors v_i of the absorbing uniformized chain do not depend on
/// the time bound — only the Poisson weights do — so the batch performs
/// the matrix sweeps once and keeps one weighted accumulator per horizon.
/// Every answer (values, residual bound, iteration counts, early
/// termination) is bit-identical to an independent
/// `timed_reachability(chain, goal, times[j], options)` call.  A guard
/// stop finalizes the unfinished horizons with their own sound residual
/// bounds.  The shared iterate is published as one guard checkpoint per
/// step, under the largest open planned count and residual.
std::vector<TransientResult> timed_reachability_batch(const Ctmc& chain, const BitVector& goal,
                                                      const std::vector<double>& times,
                                                      const TransientOptions& options = {});

}  // namespace unicon
