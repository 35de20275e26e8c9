// Goal quotients: the smallest model that still answers a time-bounded
// reachability query for one goal set.
//
// Goal states are absorbing for timed reachability, so every goal state is
// cut into one absorbing sink.  What remains is the live part: the
// non-goal states.  The live part is lumped by the pooled-signature
// strong_bisimulation of src/bisim, with the sink as the only labelled
// state.  A CTMDP enters as its strictly alternating IMC — one interactive
// state per CTMDP state, one Markov state per transition, every transition
// under one visible action, because transition labels never change a
// reachability value.
//
// Soundness: quotients of uniform models stay uniform (Lemma 3 /
// Corollary 1 of the paper), and strong bisimulation on CTMDPs preserves
// time-bounded reachability under time-abstract schedulers (Neuhäußer &
// Katoen, CONCUR 2007); on a CTMC it is ordinary lumpability.
//
// The quotient takes each block's rows from the block's first member (its
// lowest state or transition index).  The signatures compare rates at 40
// significant bits, so a member's lumped row may differ from its block's
// row at rounding level.  The lumping defect d bounds that difference: the
// largest L1 distance, in jump probabilities (rates / E), between a
// member's lumped row and its block's row.  One step moves a value by at
// most d, so a k-step answer on the quotient lies within k * d of the same
// k-step answer on the input; the analysis server adds that term to each
// horizon's residual bound.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmdp/ctmdp.hpp"
#include "support/bit_vector.hpp"

namespace unicon {

class Telemetry;

/// Sizes of one goal-quotient construction (the "reduce" span's metrics).
struct GoalQuotientStats {
  std::size_t states_in = 0;        ///< states of the input model
  std::size_t goal_states_cut = 0;  ///< goal states merged into the sink
  std::size_t live_states = 0;      ///< non-goal states
  std::size_t blocks_out = 0;       ///< quotient states: live blocks plus the sink
  double seconds = 0.0;
};

/// A goal quotient of a model type (Ctmdp or Ctmc).  Quotient states are
/// the live blocks in order of their first member, then the sink; the
/// quotient's initial state is the block of the input's initial state.
template <class Model>
struct GoalQuotient {
  Model model;
  /// Goal mask of the quotient: the sink alone.
  BitVector goal;
  /// Per input state: its quotient state (the sink for goal states).
  std::vector<StateId> state_of;
  /// The lumping defect d (see the file comment); 0 when every member's
  /// lumped row equals its block's row bit for bit.
  double defect = 0.0;
  GoalQuotientStats stats;
};

using CtmdpGoalQuotient = GoalQuotient<Ctmdp>;
using CtmcGoalQuotient = GoalQuotient<Ctmc>;

/// The goal quotient of a uniform CTMDP for @p goal (one entry per state).
/// Its transitions keep the word of the first member's first transition
/// into each lumped rate function.  Throws UniformityError when @p model
/// is not uniform, goal region included, as timed_reachability would.
/// @p telemetry (optional) records a "reduce" span with the
/// GoalQuotientStats quantities and the defect.
CtmdpGoalQuotient goal_quotient(const Ctmdp& model, const BitVector& goal,
                                Telemetry* telemetry = nullptr);

/// The goal quotient of a CTMC for @p goal.  The defect is measured at the
/// quotient's own uniformization rate, the largest live exit rate, which
/// is the rate timed_reachability(const Ctmc&, ...) solves it at.
CtmcGoalQuotient goal_quotient(const Ctmc& chain, const BitVector& goal,
                               Telemetry* telemetry = nullptr);

}  // namespace unicon
