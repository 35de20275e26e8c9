// Transient analysis of CTMCs via Jensen uniformization.
//
// This is the classical machinery the paper's Figure 4 baseline relies on
// (ETMCC-style CTMC model checking): the transient distribution at time t is
//     pi(t) = sum_n psi(n, E t) * pi(0) P^n
// for the uniformized jump matrix P, and time-bounded reachability of a goal
// set B is the transient mass in B after making B absorbing.  Every analysis
// below is a run of one uniformization driver: v_{i+1} = P v_i (or v_i P)
// from a start vector, with psi(i) v_i accumulated per time bound.
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
  /// Optional uniformization rate override (0 = maximal exit rate).
  double uniform_rate = 0.0;
  /// Truncation-bound provider for timed_reachability (single and batch);
  /// see TimedReachabilityOptions::truncation and DESIGN.md Sec. 14.  When
  /// the certificate engages, epsilon is split: the window runs at
  /// epsilon/2 and the remaining mass is folded onto the current iterate
  /// once tail_mass * ubar drops under the other epsilon/2.  The fold is
  /// checked after sweep j only while those j survival sweeps are fewer
  /// than the right - j sweeps it would skip; one that never fires leaves
  /// the solve bitwise the FoxGlynn solve at epsilon/2.
  /// transient_distribution and the phase-B propagation of
  /// interval_reachability ignore this (their iterate is not monotone
  /// toward an absorbing fixpoint); interval phase A is a plain
  /// timed_reachability call and honours it.
  Truncation truncation = Truncation::Auto;
  /// On-the-fly convergence locking for every sweep of every analysis
  /// (reachability, transient_distribution, interval_reachability): rows
  /// whose value is bitwise unchanged with all their columns locked — the
  /// successors of a backward row, the predecessors of a forward one — are
  /// skipped from then on.  Values and iteration counts are bit-identical
  /// with locking on or off; once every row is locked the matrix sweeps
  /// stop entirely and only the Poisson accumulation continues.
  bool locking = true;
  /// Steady-state detection: once the iteration vector has converged to
  /// within early_termination_delta in sup norm, the remaining Poisson mass
  /// is folded in analytically and the loop stops.  Exact for absorbing
  /// chains up to the requested precision; a large win for long horizons.
  bool early_termination = false;
  double early_termination_delta = 1e-12;
  /// Worker threads for the per-iteration matrix sweeps.  0 picks
  /// hardware_concurrency, 1 is the serial path (no threads spawned).
  /// Results are bit-identical for every thread count: both sweep
  /// directions are gathers over precomputed rows with a fixed
  /// accumulation order per state.
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
  /// (plus the epsilon slop).  Null = unguarded, bit-identical to
  /// pre-guard behaviour.
  RunGuard* guard = nullptr;
  /// Optional observability: a "transient" / "ctmc_reachability" /
  /// "interval_reachability" span with the Poisson window, iteration
  /// counts and early-termination step, plus per-worker row counters
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
  /// Uniformization rate actually used.
  double uniform_rate = 0.0;
  /// Converged, or the RunGuard budget that stopped the solve early.
  RunStatus status = RunStatus::Converged;
  /// Sound per-state bound on |probabilities[s] - true value|; epsilon-ish
  /// when Converged, the unaccumulated window mass plus slop otherwise.
  /// For interval_reachability interrupted in its first phase the bound
  /// degrades to the trivial 1.
  double residual_bound = 0.0;
  /// Resolved truncation provider (never Auto); FoxGlynn for the analyses
  /// that ignore the option.
  Truncation truncation = Truncation::FoxGlynn;
  /// Step at which the Lyapunov fold fired (effective truncation
  /// k_lyapunov); 0 when it never did.
  std::uint64_t k_lyapunov = 0;
  /// Survival sweeps this horizon's fold checks paid for (bounded by the
  /// probe budget, about right/2); 0 when the certificate was not engaged.
  std::uint64_t lyapunov_probes = 0;
  /// Row relaxations actually performed across the executed sweeps (rows
  /// skipped by convergence locking excluded); reported by every analysis,
  /// and for interval_reachability summed over both phases like
  /// iterations_executed.
  std::uint64_t state_updates = 0;
  /// Rows locked by on-the-fly convergence detection at the end (of the
  /// last phase, for interval_reachability).
  std::uint64_t locked_final = 0;
};

/// Distribution over states at time @p t, starting from the initial state:
/// the uniformization driver over the forward rows from the initial point
/// mass, normalized by the Poisson window mass.
TransientResult transient_distribution(const Ctmc& chain, double t,
                                       const TransientOptions& options = {});

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

/// Interval reachability Pr(s, [t1, t2], B): the probability that the chain
/// occupies a goal state at some time within [t1, t2] (CSL interval until
/// with a trivial left argument).  Computed by the standard two-phase
/// uniformization: reach-within-(t2 - t1) values with B absorbing, then
/// propagated backward for t1 over the *unmodified* chain.
TransientResult interval_reachability(const Ctmc& chain, const BitVector& goal,
                                      double t1, double t2,
                                      const TransientOptions& options = {});

}  // namespace unicon
