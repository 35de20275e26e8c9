// Bisimulation minimization for IMCs, and strong bisimulation for models
// with one level of nondeterminism (CTMDPs and CTMCs given as rows).
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
#include <span>
#include <vector>

#include "bisim/partition.hpp"
#include "imc/imc.hpp"
#include "support/run_guard.hpp"
#include "support/sparse.hpp"

namespace unicon {

class Telemetry;

/// Lumps a row of rates per target block in a dense per-block scratch
/// array.  Each block's sum accumulates in row order, so a sum (and its
/// signature item) depends on the transitions alone, not on how blocks are
/// numbered; the refinements and quotient() all lump through it, so a
/// block's row equals its members' signature sums bit for bit.  Rates are
/// positive, so a zero sum marks an untouched block.
class RateLumper {
 public:
  void reset(std::size_t num_blocks) { sums_.assign(num_blocks, 0.0); }
  /// Makes room for @p num_blocks blocks; between lumps every sum is zero.
  void grow(std::size_t num_blocks) { sums_.resize(num_blocks, 0.0); }

  /// Calls @p emit(block, rate) once per block that @p s reaches, in order
  /// of first reach.
  template <class Emit>
  void lump(const Imc& m, StateId s, const std::vector<std::uint32_t>& blocks, Emit&& emit) {
    for (const MarkovTransition& t : m.out_markov(s)) add(blocks[t.to], t.rate);
    flush(emit);
  }

  /// The same for one rate function given as (target, rate) entries.
  template <class Emit>
  void lump(std::span<const SparseEntry> row, const std::vector<std::uint32_t>& blocks,
            Emit&& emit) {
    for (const SparseEntry& e : row) add(blocks[e.col], e.value);
    flush(emit);
  }

 private:
  void add(std::uint32_t blk, double rate) {
    if (sums_[blk] == 0.0) touched_.push_back(blk);
    sums_[blk] += rate;
  }
  template <class Emit>
  void flush(Emit& emit) {
    for (const std::uint32_t blk : touched_) {
      emit(blk, sums_[blk]);
      sums_[blk] = 0.0;
    }
    touched_.clear();
  }

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

/// A model whose nondeterminism is one level deep, the shape of a CTMDP (a
/// CTMC is one transition per state): state s owns the transitions
/// first_transition[s] .. first_transition[s + 1] - 1, and transition t the
/// (target state, rate) entries first_entry[t] .. first_entry[t + 1] - 1.
struct TransitionRows {
  std::vector<std::uint64_t> first_transition{0};
  std::vector<std::uint64_t> first_entry{0};
  std::vector<SparseEntry> entries;

  std::size_t num_states() const { return first_transition.size() - 1; }
  std::size_t num_transitions() const { return first_entry.size() - 1; }
  std::span<const SparseEntry> rates(std::uint64_t t) const {
    return {entries.data() + first_entry[t], entries.data() + first_entry[t + 1]};
  }
};

/// One entry of a transition's lumped row: its rate sum into a block.
struct LumpedRate {
  std::uint32_t block = 0;
  double rate = 0.0;
};

/// Strong bisimulation of a TransitionRows model (see strong_bisimulation).
struct TransitionBisimulation {
  /// Canonical partition of the states.
  Partition states;
  /// Canonical partition of the transitions: two transitions share a class
  /// iff their lumped rows over `states` agree at signature precision.
  Partition transitions;
  /// Per transition t: its lumped row over the blocks of `states`, entries
  /// first_lumped[t] .. first_lumped[t + 1] - 1 of `lumped`, in order of
  /// first reach: the sums its last signature was rounded from.
  std::vector<std::uint64_t> first_lumped;
  std::vector<LumpedRate> lumped;
  /// Refinement rounds, the last one finding the fixpoint.
  std::uint64_t rounds = 0;

  std::span<const LumpedRate> row(std::uint64_t t) const {
    return {lumped.data() + first_lumped[t], lumped.data() + first_lumped[t + 1]};
  }
};

/// Coarsest strong bisimulation of @p rows, refining @p labels (one per
/// state) when given: two states are bisimilar iff they have the same set
/// of transition classes, and two transitions share a class iff their rate
/// sums into every block agree at signature precision (40 significant
/// bits).  Transition labels do not enter: this is the relation that
/// preserves time-bounded reachability.  It equals strong_bisimulation of
/// the strictly alternating IMC (one Markov state per transition, one
/// visible action) restricted to the original states, in about half the
/// rounds, because each round classifies the transitions and then splits
/// the states by the classes just found.  After the first round only the
/// transitions with a target that changed block, and the states with a
/// transition that changed class, are signed again.
///
/// @p guard (optional) is checked once per refinement round; a budget stop
/// raises BudgetError.
TransitionBisimulation strong_bisimulation(const TransitionRows& rows,
                                           const std::vector<std::uint32_t>* labels = nullptr,
                                           RunGuard* guard = nullptr);

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
