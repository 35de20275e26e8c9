// Time-unbounded analyses for CTMDPs: qualitative reachability and
// expected reachability times.
//
// These complement the paper's time-bounded Algorithm 1 with the classical
// MDP machinery:
//  * qualitative precomputation (the states reaching B with probability 0
//    under every / some scheduler, or with probability 1) via graph
//    fixpoints,
//  * expected time to B — in a *uniform* CTMDP every jump takes 1/E
//    expected time regardless of the transition chosen, so the expected
//    hitting time is the expected jump count divided by E, found by value
//    iteration on the embedded DTMDP.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmdp/ctmdp.hpp"
#include "ctmdp/reachability.hpp"
#include "support/bit_vector.hpp"

namespace unicon {

struct UnboundedOptions {
  Objective objective = Objective::Maximize;
  /// Value-iteration stopping threshold (sup-norm).
  double tolerance = 1e-12;
  std::uint64_t max_iterations = 1u << 22;
};

/// States from which B is reached with probability zero under the
/// objective: for Maximize, no scheduler reaches B at all (no path into B);
/// for Minimize, some scheduler avoids B forever.
BitVector zero_states(const Ctmdp& model, const BitVector& goal,
                              Objective objective);

/// Qualitative almost-sure reachability:
///  - Maximize: Prob1E — SOME scheduler reaches B with probability 1
///    (classical nested fixpoint).
///  - Minimize: Prob1A — EVERY scheduler reaches B with probability 1
///    (equivalently: no B-free path into the avoid-forever region).
BitVector almost_sure_states(const Ctmdp& model, const BitVector& goal,
                                     Objective objective);

struct ExpectedTimeResult {
  /// Expected time to reach B from each state; infinity when B is not
  /// reached almost surely under the optimizing scheduler (decided
  /// graph-theoretically via almost_sure_states, not numerically).
  std::vector<double> values;
  std::uint64_t iterations = 0;
  /// Value iteration reached the tolerance.  Expected-step iteration
  /// converges at the time scale of the expected value itself; for
  /// stiff models raise max_iterations or accept the (monotone
  /// lower-bound) truncation this flag reports.
  bool converged = false;
};

/// sup/inf expected time until B in a *uniform* CTMDP (throws
/// UniformityError otherwise).  Maximize gives the worst-case expected
/// hitting time; states that can avoid B (Maximize) or cannot reach it
/// (either) get infinity.
ExpectedTimeResult expected_reachability_time(const Ctmdp& model, const BitVector& goal,
                                              const UnboundedOptions& options = {});

}  // namespace unicon
