// Bisimulation minimization for IMCs.
//
// Implements the equivalences used by the paper's compositional
// minimization strategy (Sec. 3):
//
//  * strong bisimulation — interactive moves matched exactly, Markov rates
//    lumped per class [21]; rates of tau-unstable states are ignored
//    (maximal progress).
//  * stochastic branching bisimulation (Def. 6) — interactive moves matched
//    up to inert tau steps (branching condition [30]); every state related
//    to a stable state can inertly reach a stable state with the identical
//    lumped rate vector per class.
//
// Both are computed by signature refinement (Blom–Orzan style): starting
// from the trivial partition, states are repeatedly split by a canonical
// signature until a fixpoint is reached.  Inert tau cycles are collapsed
// upfront (the closed models of the paper are Zeno-free; for open models
// this realizes the usual divergence-insensitive interpretation).
//
// Lemma 3 / Corollary 1 of the paper — quotienting preserves uniformity —
// is exercised by the test suite on top of these functions.
#pragma once

#include <cstdint>
#include <vector>

#include "bisim/partition.hpp"
#include "imc/imc.hpp"
#include "support/run_guard.hpp"

namespace unicon {

class Telemetry;

/// Lumps a state's Markov rates per target block in a dense per-block
/// scratch array.  Each block's sum accumulates in out_markov order, so a
/// sum (and its signature item) depends on the transitions alone, not on
/// how blocks are numbered; the refinements, quotient() and the goal
/// quotient (core/goal_quotient.hpp) all lump through it, so a block's
/// row equals its members' signature sums bit for bit.  Markov rates are
/// positive, so a zero sum marks an untouched block.
class RateLumper {
 public:
  void reset(std::size_t num_blocks) { sums_.assign(num_blocks, 0.0); }

  /// Calls @p emit(block, rate) once per block that @p s reaches, in order
  /// of first reach.
  template <class Emit>
  void lump(const Imc& m, StateId s, const std::vector<std::uint32_t>& blocks, Emit&& emit) {
    for (const MarkovTransition& t : m.out_markov(s)) {
      const std::uint32_t blk = blocks[t.to];
      if (sums_[blk] == 0.0) touched_.push_back(blk);
      sums_[blk] += t.rate;
    }
    for (const std::uint32_t blk : touched_) {
      emit(blk, sums_[blk]);
      sums_[blk] = 0.0;
    }
    touched_.clear();
  }

 private:
  std::vector<double> sums_;
  std::vector<std::uint32_t> touched_;
};

/// Coarsest strong bisimulation partition of @p m.  When @p labels is
/// non-null (one label per state) the partition refines the label classes —
/// use this to preserve atomic propositions (e.g. goal states) through
/// minimization.
///
/// @p guard (optional, also on branching_bisimulation) is checked once per
/// refinement round; partition refinement has no partial-result story, so
/// a budget stop raises BudgetError.
///
/// @p telemetry (optional, also on branching_bisimulation) records a
/// "bisim" span with refinement rounds, splitter count (blocks created by
/// splits across all rounds) and the final block count.
Partition strong_bisimulation(const Imc& m, const std::vector<std::uint32_t>* labels = nullptr,
                              RunGuard* guard = nullptr, Telemetry* telemetry = nullptr);

/// Coarsest stochastic branching bisimulation partition of @p m, optionally
/// refining initial label classes (see strong_bisimulation).
Partition branching_bisimulation(const Imc& m,
                                 const std::vector<std::uint32_t>* labels = nullptr,
                                 RunGuard* guard = nullptr, Telemetry* telemetry = nullptr);

/// How inert tau transitions (tau steps inside one block) are treated when
/// quotienting: Branching drops them (they are stuttering steps), Strong
/// keeps them as tau self-loops of the block.
enum class QuotientStyle : std::uint8_t { Branching, Strong };

/// Quotient IMC of @p m under @p partition.  Interactive transitions are the
/// (non-inert, for branching partitions) transitions of the block members;
/// Markov transitions are the lumped rate vector of a stable member (blocks
/// without stable members have none — their rates are preempted by maximal
/// progress).  Quotient state ids equal block ids, so per-block data (e.g.
/// transferred goal masks) indexes the quotient directly; when @p m is
/// reachable, so is the quotient.
Imc quotient(const Imc& m, const Partition& partition,
             QuotientStyle style = QuotientStyle::Branching);

/// quotient(m, branching_bisimulation(m)) — the StoBraBi(M) of the paper.
Imc minimize_branching(const Imc& m);

/// quotient(m, strong_bisimulation(m)).
Imc minimize_strong(const Imc& m);

}  // namespace unicon
