// Timed reachability in uniform CTMDPs — Algorithm 1 of the paper,
// originally due to Baier, Haverkort, Hermanns and Katoen [2].
//
// Computes, for every state s, the supremum (or infimum) over all
// randomized time-abstract history-dependent schedulers of the probability
// to reach a goal set B within t time units:
//
//     sup_D Pr_D(s, reach B within t).
//
// The greedy backward value iteration runs k = k(epsilon, E, t) steps where
// k is the right truncation point of the Poisson(E t) distribution at
// precision epsilon: q_{k+1} := 0 and for i = k..1
//
//     q_i(s) = max_{(s,a,R)} [ psi(i) Pr_R(s,B) + sum_{s'} Pr_R(s,s') q_{i+1}(s') ]
//     q_i(s) = psi(i) + q_{i+1}(s)                                for s in B.
//
// The variant of Def. 1 (multiple transitions per action) only means the
// maximum ranges over all emanating transitions instead of all actions.
//
// One fused sweep serves every entry point below: a list of horizons
// fused bottom-aligned (DESIGN.md Sec. 11.1) over a row engine per backend
// (full-state rows over DiscreteKernel for serial, dense goal-folded rows
// over DenseKernel for the simd backends).  timed_reachability is that
// sweep with one horizon, and step_bounded_reachability runs it with zero
// Poisson weights.  evaluate_scheduler and evaluate_countdown_scheduler
// (scheduler.hpp) replay a fixed policy on the serial rows.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmdp/ctmdp.hpp"
#include "support/backend.hpp"
#include "support/bit_vector.hpp"
#include "support/lyapunov_bound.hpp"
#include "support/run_guard.hpp"

namespace unicon {

class Telemetry;
struct DiscreteKernel;
struct DenseKernel;

enum class Objective : std::uint8_t { Maximize, Minimize };

struct TimedReachabilityResult;

struct TimedReachabilityOptions {
  /// Truncation precision (paper: 0.000001).
  double epsilon = 1e-6;
  Objective objective = Objective::Maximize;
  /// Truncation-bound provider (DESIGN.md Sec. 14).  `FoxGlynn` keeps the
  /// historical pure Poisson-window schedule.  `Lyapunov` splits epsilon:
  /// the window is computed at epsilon/2 and the survival certificate may
  /// stop the below-window iteration once the forfeited error is provably
  /// under the other epsilon/2.  The certificate is checked at step g only
  /// while its left - g survival sweeps are fewer than the g - 1 sweeps a
  /// stop would skip, so one that never fires costs at most what it could
  /// have saved, and the solve is then bitwise the FoxGlynn solve at
  /// epsilon/2.  `Auto` engages the certificate only for long horizons
  /// (window left point > kLyapunovAutoEngageLeft), so short queries stay
  /// bit-identical to FoxGlynn.  The certificate never fires when
  /// extract_scheduler is set (the decision table must stay faithful).
  Truncation truncation = Truncation::Auto;
  /// On-the-fly convergence locking: states whose recomputed value is
  /// bitwise unchanged and whose successors are all locked are skipped in
  /// subsequent sweeps.  Locked values are *exact* fixpoints of their row,
  /// so reported values are bit-identical with locking on or off (the
  /// backend tests prove it); only the amount of work per sweep — and,
  /// via the exact-fixpoint break, iterations_executed — changes.
  /// Disabled internally when extract_scheduler is set.
  bool locking = true;
  /// Optional "until"-style constraint: states flagged here must not be
  /// visited before the goal (their value is pinned to 0, the absorbing
  /// treatment of phi U<=t psi model checking).  Goal membership wins when
  /// a state is flagged in both.  Must be empty or num_states() long.
  BitVector avoid;
  /// Compute backend for the sweep.  Auto resolves via UNICON_BACKEND
  /// (else Simd).  Simd runs the dense goal-folded kernel (AVX2 inner loop
  /// when available, portable striped lanes otherwise); Serial is the
  /// historical scalar engine, bit-identical to the pre-backend solver and
  /// the reference engine.  The two differ by FP reassociation
  /// only — see DESIGN.md Sec. 10 for the exact contract.  Each backend is
  /// bit-identical to itself across all thread counts.  extract_scheduler
  /// overrides it with Serial.
  Backend backend = Backend::Auto;
  /// Record the optimal decision (transition index) per state for the first
  /// step (i = 1) — e.g. which component the optimal FTWC policy repairs
  /// first.  Also records full per-step decisions if the table stays below
  /// max_decision_entries.  Runs the Serial engine whatever `backend` says:
  /// only it tracks decisions.
  bool extract_scheduler = false;
  std::uint64_t max_decision_entries = 1u << 24;
  /// Worker threads for the per-iteration state sweep.  0 sizes the team
  /// to the work (team_size in support/parallel.hpp: one worker per
  /// kSweepRowsPerWorker rows, at most hardware_concurrency), 1 is the
  /// serial path (no threads spawned).  The
  /// sweep partitions states into contiguous per-worker slices, so results
  /// — including the sweep delta the stops below the window test, a
  /// max-reduction over disjoint slices — are bit-identical for every
  /// thread count.
  unsigned threads = 0;
  /// Optional execution control.  Polled once per value-iteration step on
  /// the coordinating thread and every ~2k states inside parallel sweeps,
  /// so a budget stop takes effect within one barrier.  On a stop the
  /// solver returns a *partial* result: `status` names the cause and
  /// `residual_bound` soundly bounds |reported - true| per state (see
  /// partial_residual in reachability.cpp for the derivation).  Null =
  /// unguarded; the unguarded path is bit-identical to pre-guard behaviour.
  RunGuard* guard = nullptr;
  /// Optional resume from a prior *partial* result of the same solve (same
  /// model, goal, t, epsilon; validated via iterations_planned and the
  /// iterate size).  Iteration continues from the saved raw iterate; an
  /// uninterrupted and a resumed run produce bit-identical values.
  const TimedReachabilityResult* resume = nullptr;
  /// Optional observability: a "reachability" span (one per
  /// timed_reachability, evaluate_scheduler or evaluate_countdown_scheduler
  /// call; a batch reports a
  /// "reachability_batch" span with one "reachability_batch.horizon" child
  /// per bound) with states/transitions, the Poisson window
  /// (left/right/width), iterations planned/executed and the truncation
  /// metrics, plus per-worker row counters
  /// ("reachability.rows.worker<i>") batched once per sweep.  A live
  /// registry only observes — results stay bit-identical with telemetry on
  /// or off.
  Telemetry* telemetry = nullptr;
  /// Optional pre-built kernels (the analysis-server cache amortizes kernel
  /// construction across queries).  A supplied kernel MUST have been built
  /// from exactly this (model, goal) — and, for the dense kernel, this
  /// avoid mask — or the solve is silently wrong; the solver only validates
  /// the cheap size invariants.  The kernel a backend does not use is
  /// ignored.  Null = build internally (bit-identical either way).
  const DiscreteKernel* discrete_kernel = nullptr;
  const DenseKernel* dense_kernel = nullptr;
};

struct TimedReachabilityResult {
  /// q(s): optimal probability to reach B within t from s (1 for s in B).
  std::vector<double> values;
  /// k — the faithful number of value-iteration steps (Table 1 column).
  std::uint64_t iterations_planned = 0;
  /// Steps actually executed: planned, unless the exact-fixpoint break or
  /// the Lyapunov certificate stopped below the window, or a guard stopped
  /// the solve.
  std::uint64_t iterations_executed = 0;
  /// Uniform rate E of the model.
  double uniform_rate = 0.0;
  /// Poisson parameter E * t.
  double lambda = 0.0;
  /// Optimal transition index per state at step i = 1 (empty unless
  /// extract_scheduler; kNoTransition for goal/transitionless states).
  std::vector<std::uint64_t> initial_decision;
  /// Full step-dependent decision table, decisions[j] = choices at step
  /// i = j+1 (empty if disabled or above max_decision_entries).
  std::vector<std::vector<std::uint64_t>> decisions;
  /// Converged, or the RunGuard budget that stopped the solve early.
  RunStatus status = RunStatus::Converged;
  /// Sound per-state bound on |values[s] - true value|: the window's
  /// epsilon (plus the certified tail when the Lyapunov certificate fired)
  /// for a Converged run; for a partial run, the Poisson-weight
  /// displacement bound of the unfinished backward iteration
  /// (partial_residual in reachability.cpp).
  double residual_bound = 0.0;
  /// Resolved truncation provider (never Auto).
  Truncation truncation = Truncation::FoxGlynn;
  /// Step count at which the Lyapunov certificate stopped the iteration
  /// (the effective truncation k_lyapunov); 0 when it never fired.
  std::uint64_t k_lyapunov = 0;
  /// Survival sweeps this horizon's certificate paid for: the deepest age
  /// it checked (bounded by the probe budget, about left/2); 0 when the
  /// certificate was not engaged or, on resume, when the resume point lies
  /// past the budget's cutoff.
  std::uint64_t lyapunov_probes = 0;
  /// True when the iteration reached an exact fixpoint below the Poisson
  /// window (sweep delta exactly 0) and the remaining sweeps were skipped
  /// as provable no-ops.
  bool exact_fixpoint = false;
  /// Row relaxations actually performed (sum over executed sweeps of the
  /// states not skipped by convergence locking).  state_updates /
  /// num_states is the "effective sweeps" metric of the truncation
  /// ablation.
  std::uint64_t state_updates = 0;
  /// States locked by on-the-fly convergence detection at the end.
  std::uint64_t locked_final = 0;
  /// Raw (unclamped) iterate at the stop point, for checkpoint/resume.
  /// Populated only when status != Converged.
  std::vector<double> iterate;
};

inline constexpr std::uint64_t kNoTransition = static_cast<std::uint64_t>(-1);

/// Runs Algorithm 1 — the batch solve below with the single horizon @p t,
/// and the only entry that accepts options.resume.  Requires a uniform
/// CTMDP (throws UniformityError otherwise) and goal.size() == num_states().
TimedReachabilityResult timed_reachability(const Ctmdp& model, const BitVector& goal,
                                           double t, const TimedReachabilityOptions& options = {});

/// Multi-horizon Algorithm 1: one fused solve answering every time bound in
/// @p times against the same (model, goal, options).  Results are returned
/// in input order and each is *bit-identical* — values, residual bounds,
/// iteration counts, scheduler tables, stop steps — to an independent
/// `timed_reachability(model, goal, times[j], options)` call, by
/// construction: every horizon keeps its own iterate and Poisson window
/// and performs exactly the per-state operation sequence of its single-t
/// run.  The horizons are fused bottom-aligned (all end at step 1
/// together), so one pass over the shared kernel relaxes every active
/// horizon per block — the kernel is built and streamed once per step
/// instead of once per horizon, which is where the batch speedup comes
/// from (DESIGN.md Sec. 11).
///
/// Guard stops produce per-horizon partial results: horizons that already
/// finished stay Converged, the rest carry their own sound residual bound
/// and resumable iterate.  options.resume is rejected (resume a horizon via
/// a single-t call).  Guard checkpoints are published per horizon — its
/// full-state iterate, step, planned count and residual — exactly as its
/// single-t run publishes them, and each publication drops that horizon's
/// locks.
std::vector<TimedReachabilityResult> timed_reachability_batch(
    const Ctmdp& model, const BitVector& goal, const std::vector<double>& times,
    const TimedReachabilityOptions& options = {});

/// Policy evaluation: the same backward iteration but following the fixed
/// stationary scheduler @p choice (a transition index per state; entries for
/// goal or transitionless states are ignored).  A stationary scheduler is
/// the one-row countdown table, so this is evaluate_countdown_scheduler's
/// replay (scheduler.hpp): serial rows on every backend, the pure Fox-Glynn
/// schedule and no locking, with options.avoid, extract_scheduler and
/// resume ignored.  The induced process is a uniform CTMC, so this equals
/// CTMC timed reachability and serves as a cross-check in the tests.
/// Honours options.threads, guard (partial results as in
/// timed_reachability) and telemetry.  Throws ModelError on an
/// out-of-range choice at a non-goal state with transitions.
TimedReachabilityResult evaluate_scheduler(const Ctmdp& model, const BitVector& goal,
                                           double t, const std::vector<std::uint64_t>& choice,
                                           const TimedReachabilityOptions& options = {});

/// Discrete step-bounded reachability: optimal probability to reach B
/// within at most @p steps jumps (no timing).  Used by unit tests as an
/// independently checkable special case.  Solved as the one-horizon sweep
/// above with the lambda = 0 window (psi(g) = 0 for every step g >= 1) and
/// k = @p steps, seeded with the goal indicator, so its values are clamped
/// into [0, 1] like every other solver's.  @p threads as in
/// TimedReachabilityOptions (0 = sized to the work, 1 = serial).  The
/// step count carries no Poisson mass, so there is no partial-result
/// story: a guard stop raises BudgetError instead, and no checkpoint is
/// published.  @p backend as in TimedReachabilityOptions.
std::vector<double> step_bounded_reachability(const Ctmdp& model, const BitVector& goal,
                                              std::uint64_t steps,
                                              Objective objective = Objective::Maximize,
                                              unsigned threads = 0, RunGuard* guard = nullptr,
                                              Backend backend = Backend::Auto);

}  // namespace unicon
