// Slow, obviously-correct reference oracles for the differential
// verification subsystem.
//
// Everything here is written independently of the optimized library code
// paths it checks: the naive value iteration uses dense probability rows
// and the lgamma-based reference Poisson pmf (no DiscreteKernel, no
// PoissonWindow, no WorkerPool); the transform oracle re-derives the
// strictly alternating normal form of Sec. 4.1 by plain brute-force
// zero-time-closure enumeration (no worklist interning, no word tables);
// the uniformity auditor recomputes Def. 4 by direct summation.  Agreement
// between these oracles and the production code on machine-generated
// models is the evidence the fuzz driver collects.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/transform.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmdp/ctmdp.hpp"
#include "ctmdp/reachability.hpp"
#include "imc/imc.hpp"
#include "support/bit_vector.hpp"

namespace unicon::testing {

/// A dense nondeterministic jump process: per state, a set of choices, each
/// a dense branching-probability row over all states.  The common exit rate
/// turns it back into a uniform CTMDP semantically.
struct DenseModel {
  std::size_t num_states = 0;
  StateId initial = 0;
  double uniform_rate = 0.0;
  /// choices[s][c][s'] = branching probability of choice c in state s.
  std::vector<std::vector<std::vector<double>>> choices;
};

/// Dense copy of a uniform CTMDP (identity state mapping).  Throws
/// UniformityError when exit rates disagree by more than 1e-6 relative.
DenseModel dense_from_ctmdp(const Ctmdp& model);

/// Naive dense Algorithm 1: backward value iteration with reference
/// poisson_pmf weights and a truncation point found by direct summation of
/// the pmf (right tail mass <= eps).  Returns the per-state optimal
/// probability of reaching @p goal within @p t.
std::vector<double> naive_timed_reachability(const DenseModel& model,
                                             const BitVector& goal, double t, double eps,
                                             Objective objective = Objective::Maximize);

/// Naive dense step-bounded reachability (no timing): optimal probability
/// of reaching @p goal within at most @p steps jumps.
std::vector<double> naive_step_bounded(const DenseModel& model, const BitVector& goal,
                                       std::uint64_t steps,
                                       Objective objective = Objective::Maximize);

/// Brute-force re-derivation of the uIMC -> uCTMDP transformation.
struct BruteTransform {
  DenseModel model;
  /// Existential / universal goal transfer (Sec. 4.1), recomputed by direct
  /// closure folds.
  BitVector goal_exists;
  BitVector goal_universal;
  /// Per-state choice counts, sorted — a state-mapping-free fingerprint to
  /// compare against the optimized Ctmdp.
  std::vector<std::size_t> sorted_choice_counts;
  /// Per-choice nonzero target counts, sorted.
  std::vector<std::size_t> sorted_entry_counts;
};

/// Recomputes the three-step normal form of @p closed directly: urgency
/// cut, pair states for Markov->Markov edges, zero-time interactive
/// closure per decision state.  Throws ZenoError / ModelError exactly where
/// transform_to_ctmdp must (interactive cycles, zero-time deadlocks,
/// absorbing initial state).
BruteTransform bruteforce_transform(const Imc& closed, const BitVector& goal);

/// Compares transform_to_ctmdp output against the brute-force oracle on
/// state-mapping-free invariants: state/transition/entry counts, goal-mask
/// cardinalities, uniform rates.  Returns a description of the first
/// mismatch, or nullopt when everything agrees.
std::optional<std::string> check_transform(const Imc& closed, const BitVector& goal,
                                           const TransformResult& transformed);

/// Direct Def.-4 audit: recomputes the exit rate of every constrained
/// reachable state by plain summation (own BFS, no library uniformity
/// helpers).
struct UniformityAudit {
  bool uniform = false;
  double rate = 0.0;           // mean constrained exit rate (0 if none)
  double max_deviation = 0.0;  // largest |E_s - rate| over constrained states
  StateId worst_state = 0;
};
UniformityAudit audit_uniformity(const Imc& m, UniformityView view, double tol = 1e-9);

/// Interprets a CTMDP in which every state has at most one transition as a
/// CTMC (states without transitions become absorbing).  Throws if some
/// state has two or more transitions.
Ctmc ctmc_from_deterministic_ctmdp(const Ctmdp& model);

/// Builds the CTMC induced by a stationary scheduler choice on a CTMDP.
Ctmc induced_ctmc(const Ctmdp& model, const std::vector<std::uint64_t>& choice);

}  // namespace unicon::testing
