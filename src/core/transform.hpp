// The uIMC -> uCTMDP transformation (Sec. 4.1 of the paper).
//
// A closed IMC is normalized into a *strictly alternating* IMC in three
// steps, each preserving the scheduler-indexed path probability measures
// (Theorem 1):
//
//  (1) alternating         — hybrid states lose their Markov transitions
//                            (urgency: in a closed system every
//                            interactive transition preempts delays);
//  (2) Markov alternating  — Markov->Markov sequences are broken by a
//                            fresh interactive state (s,s') reached with
//                            the original rate and left by tau;
//  (3) strictly alternating — maximal sequences of interactive
//                            transitions are compressed into single
//                            transitions labeled by *words* over
//                            Act+_{\tau} u {tau}; interactive states
//                            without Markov predecessors disappear.
//
// The result is interpreted as a CTMDP whose states are the remaining
// interactive states and whose transitions correspond one-to-one to the
// (source, word, Markov state) edges; the rate function of a transition is
// the Markov state's outgoing rate vector.
//
// transform_to_ctmdp applies the three steps on the fly, in one pass over
// the input's transition rows: no intermediate IMC is built.  Hybrid
// states' Markov transitions are never read, and a pair state (s,s') is
// numbered when a transition first enters s.  CTMDP states are numbered in
// the order of a worklist seeded with the initial state; a Markov state's
// targets are taken non-Markov states first (ascending), then pair states
// (ascending by s').
#pragma once

#include <cstdint>
#include <vector>

#include "ctmdp/ctmdp.hpp"
#include "imc/imc.hpp"
#include "support/bit_vector.hpp"
#include "support/run_guard.hpp"

namespace unicon {

class Telemetry;

/// Statistics of the strictly alternating representation — the columns of
/// the paper's Table 1.
struct TransformStats {
  std::size_t interactive_states = 0;      // = CTMDP states
  std::size_t markov_states = 0;           // = distinct rate functions
  std::size_t interactive_transitions = 0; // = CTMDP transitions (word edges)
  std::size_t markov_transitions = 0;      // rate entries of the Markov states
  std::size_t memory_bytes = 0;            // strictly alternating storage
  /// Word edges suppressed because another word already connected the same
  /// (source, Markov state) pair — such duplicates carry identical rate
  /// functions and are indistinguishable to time-abstract schedulers.
  std::size_t words_deduplicated = 0;
  double seconds = 0.0;                    // wall time of the transformation
};

struct TransformResult {
  Ctmdp ctmdp;
  TransformStats stats;
  /// Per CTMDP state: the original IMC state it stems from.  Fresh states
  /// introduced by step (2) map to the Markov state they lead into (their
  /// sojourn time is spent there); a fresh initial state maps to the
  /// original initial state.
  std::vector<StateId> origin_of;
  /// Transferred goal sets (empty when no goal was supplied):
  /// goal[x] — some zero-time interactive path from x hits the original
  /// goal set (correct for sup/maximal reachability);
  /// goal_universal[x] — every zero-time resolution from x hits it
  /// (correct for inf/minimal reachability).
  BitVector goal;
  BitVector goal_universal;
};

/// Full transformation pipeline: steps (1)-(3) plus CTMDP interpretation.
/// @p m must be a closed IMC; only its part reachable from the initial state
/// is transformed.  Throws ZenoError when a cycle of interactive transitions
/// is reachable, and ModelError on zero-time deadlocks (absorbing
/// interactive states), which the paper's setting excludes.
///
/// If @p goal is non-null it must have one entry per state of @p m; the
/// transferred goal masks are returned in the result.
///
/// Parallel Markov transitions (several with the same source and target)
/// are summed into one rate entry in Imc::out_markov order.  A bisimulation
/// quotient has none; without them every rate entry is an input rate, and
/// each exit rate is summed in ascending target order.
///
/// @p guard (optional) is checked once per closure entry; the
/// transformation has no partial-result story, so a budget stop raises
/// BudgetError.
///
/// @p telemetry (optional) records a "transform" span with the
/// TransformStats quantities plus the hybrid Markov transitions cut in
/// step (1) and the fresh tau states added in step (2), and a
/// "transform.word_length" histogram of the emitted closure words.
TransformResult transform_to_ctmdp(const Imc& m, const BitVector* goal = nullptr,
                                   RunGuard* guard = nullptr, Telemetry* telemetry = nullptr);

}  // namespace unicon
