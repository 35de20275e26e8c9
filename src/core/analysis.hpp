// End-to-end timed reachability analysis of closed uniform IMCs: the glue
// between the compositional construction (Sec. 3), the uIMC -> uCTMDP
// transformation (Sec. 4.1) and Algorithm 1 (Sec. 4.2).
#pragma once

#include <vector>

#include "core/transform.hpp"
#include "ctmdp/reachability.hpp"
#include "imc/imc.hpp"

namespace unicon {

/// The input must satisfy Def. 4 (Algorithm 1 is only correct on uniform
/// models): both entry points check it in the closed view, since the input
/// is a complete system, and throw UniformityError before transforming.
struct UimcAnalysisOptions {
  TimedReachabilityOptions reachability;
};

struct UimcAnalysisResult {
  /// Probability at the initial state.
  double value = 0.0;
  /// Per-CTMDP-state values plus solver statistics.
  TimedReachabilityResult reachability;
  /// The transformed model and state mapping, for further queries; its
  /// `stats` are the transformation statistics (Table 1 columns).
  TransformResult transformed;
};

/// Computes sup_D Pr_D(s0, reach goal within t) — or inf with
/// options.reachability.objective == Minimize — for the closed uniform IMC
/// @p m.  @p goal flags states of @p m; it is transferred through the
/// transformation automatically (existential transfer for sup, universal
/// for inf).
UimcAnalysisResult analyze_timed_reachability(const Imc& m, const BitVector& goal,
                                              double t, const UimcAnalysisOptions& options = {});

struct UimcBatchAnalysisResult {
  /// Probability at the initial state per requested time bound (input order).
  std::vector<double> values;
  /// Full per-horizon solver results (timed_reachability_batch contract:
  /// each bit-identical to its independent single-t solve).
  std::vector<TimedReachabilityResult> reachability;
  TransformResult transformed;
};

/// Multi-horizon variant of analyze_timed_reachability: the pipeline up to
/// the CTMDP runs once, then one fused batch solve answers every bound in
/// @p times (see ctmdp/reachability.hpp for the batch guarantees).
UimcBatchAnalysisResult analyze_timed_reachability_batch(const Imc& m, const BitVector& goal,
                                                         const std::vector<double>& times,
                                                         const UimcAnalysisOptions& options = {});

}  // namespace unicon
