// End-to-end timed reachability analysis of closed uniform IMCs: the glue
// between the compositional construction (Sec. 3), the uIMC -> uCTMDP
// transformation (Sec. 4.1) and Algorithm 1 (Sec. 4.2).
//
// Both entry points solve the goal quotient of the transformed CTMDP
// (core/goal_quotient.hpp): the goal region cut into one sink and the rest
// lumped by strong bisimulation, which stays uniform by Lemma 3 /
// Corollary 1.  The answer is reported on the transformed CTMDP.
#pragma once

#include <vector>

#include "core/goal_quotient.hpp"
#include "core/transform.hpp"
#include "ctmdp/reachability.hpp"
#include "imc/imc.hpp"

namespace unicon {

/// The input must satisfy Def. 4 (Algorithm 1 is only correct on uniform
/// models): both entry points check it in the closed view, since the input
/// is a complete system, and throw UniformityError before transforming.
/// The options that index the transformed CTMDP (avoid, resume,
/// discrete_kernel, dense_kernel) cannot be built before the call, so both
/// entry points refuse them with a ModelError that names them.
struct UimcAnalysisOptions {
  TimedReachabilityOptions reachability;
};

/// The goal quotient an analysis solved (core/goal_quotient.hpp).
struct UimcReduction {
  /// Its sizes; blocks_out == 0 when the solve ran unreduced.
  GoalQuotientStats stats;
  /// Its lumping defect d.
  double defect = 0.0;
};

struct UimcAnalysisResult {
  /// Probability at the initial state.
  double value = 0.0;
  /// The solve of the goal quotient, reported on the transformed CTMDP:
  /// `values` (and a partial run's `iterate`) hold one entry per CTMDP
  /// state, lifted through the quotient's state map, and `residual_bound`
  /// includes the lumping term k * d (quotient_residual_bound).  A solve
  /// with extract_scheduler runs on the transformed CTMDP itself, so its
  /// decision table indexes the model a scheduler artifact names.
  TimedReachabilityResult reachability;
  UimcReduction reduction;
  /// The transformed model, unreduced, and the state mapping, for further
  /// queries; its `stats` are the transformation statistics (Table 1
  /// columns).
  TransformResult transformed;
};

/// Computes sup_D Pr_D(s0, reach goal within t) — or inf with
/// options.reachability.objective == Minimize — for the closed uniform IMC
/// @p m.  @p goal flags states of @p m; it is transferred through the
/// transformation automatically (existential transfer for sup, universal
/// for inf).  options.reachability.guard also stops the lumping (a stop
/// there raises BudgetError), and options.reachability.telemetry records
/// its "reduce" span between "transform" and "reachability".
UimcAnalysisResult analyze_timed_reachability(const Imc& m, const BitVector& goal,
                                              double t, const UimcAnalysisOptions& options = {});

struct UimcBatchAnalysisResult {
  /// Probability at the initial state per requested time bound (input order).
  std::vector<double> values;
  /// Full per-horizon solver results, reported as in UimcAnalysisResult
  /// (timed_reachability_batch contract: each bit-identical to its
  /// independent single-t analysis).
  std::vector<TimedReachabilityResult> reachability;
  UimcReduction reduction;
  TransformResult transformed;
};

/// Multi-horizon variant of analyze_timed_reachability: the pipeline up to
/// the goal quotient runs once, then one fused batch solve answers every
/// bound in @p times (see ctmdp/reachability.hpp for the batch guarantees).
UimcBatchAnalysisResult analyze_timed_reachability_batch(const Imc& m, const BitVector& goal,
                                                         const std::vector<double>& times,
                                                         const UimcAnalysisOptions& options = {});

}  // namespace unicon
