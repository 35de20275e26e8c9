// Parallel composition and hiding of IMCs (Sec. 3 of the paper).
//
// Composition is expressed as an expression tree over component IMCs —
// leaves, CSP/LOTOS-style parallel nodes |[A]| and hide nodes — which is
// explored *on the fly*: only product states reachable from the composite
// initial state are ever materialized.  This replaces the paper's
// CADP/SVL tool chain and avoids its intermediate state-space blowup
// (Sec. 5 "Technicalities") while producing the same reachable IMC.
//
// The SOS rules implemented are exactly those of Sec. 3: interactive
// transitions interleave unless their action is in the synchronization set
// (tau never synchronizes), Markov transitions always interleave, hiding
// renames to tau and leaves Markov transitions untouched.  Lemmas 1 and 2
// (uniformity preservation) are validated by the test suite on top of this
// implementation.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_set>
#include <vector>

#include "imc/imc.hpp"
#include "support/run_guard.hpp"

namespace unicon {

class Telemetry;

struct ExploreOptions {
  /// Apply the closed-view urgency assumption during generation: states
  /// with an enabled interactive transition contribute no Markov
  /// transitions.  Only sound for complete (closed) models.
  bool urgent = false;
  /// Record composite state names "(s0,s1,...)" (costly for large spaces).
  bool record_names = false;
  /// Abort with ModelError when more product states than this are reached.
  std::size_t max_states = static_cast<std::size_t>(-1);
  /// When non-null, receives the leaf-state tuples of all composite states
  /// as one flat array with stride num_leaves(): the local state of leaf l
  /// (leaves in left-to-right expression order) in composite state s is
  /// (*record_tuples)[s * num_leaves() + l].  This is the explorer's own
  /// tuple arena, handed over without a copy.  Cheaper and more robust than
  /// parsing record_names output; used by the modeling-language and DFT
  /// frontends to transfer per-leaf atomic propositions onto the product.
  std::vector<StateId>* record_tuples = nullptr;
  /// Optional execution control, checked once per explored frontier state.
  /// State-space generation has no partial-result story, so a budget stop
  /// raises BudgetError.
  RunGuard* guard = nullptr;
  /// Optional observability: explore() opens a "compose" span recording
  /// product states/transitions, dedup hits, the peak frontier size and
  /// arena_bytes (the tuple arena plus the state table at the end).
  Telemetry* telemetry = nullptr;
};

/// An immutable composition expression.  All leaves must share one
/// ActionTable instance so that action ids agree.
class CompositionExpr {
 public:
  /// A single component.
  static CompositionExpr leaf(Imc imc);

  /// left |[sync]| right.  @p sync must not contain tau.
  static CompositionExpr parallel(CompositionExpr left, std::unordered_set<Action> sync,
                                  CompositionExpr right);

  /// Interleaving without synchronization: left |[{}]| right.
  static CompositionExpr interleave(CompositionExpr left, CompositionExpr right);

  /// hide hidden in (inner).
  static CompositionExpr hide(CompositionExpr inner, std::unordered_set<Action> hidden);

  /// Hides every visible action of the inner expression.
  static CompositionExpr hide_all(CompositionExpr inner);

  /// Explores the reachable composite state space and returns it as an IMC.
  /// State ids follow discovery order from the initial tuple (id 0), taking
  /// each state's successors in SOS order: interactive moves (at a parallel
  /// node: left-only, right-only, then synchronised pairs, left-major),
  /// then Markov moves leaf by leaf.  The result is a deterministic function
  /// of the expression and the options.
  ///
  /// Blocked synchronisations are never collected: per product state, each
  /// node's offer (the actions its subtree can perform there) is computed
  /// bottom-up over enabled-action bit masks, and moves are collected
  /// top-down only for the actions an ancestor can still pass on.  A child
  /// of |[A]| is not asked for an action of A that its sibling does not
  /// offer; a child of a hide node is asked for every hidden action, since
  /// tau never synchronises and so is never blocked.  Pruning drops only
  /// moves that an ancestor would drop, so ids, names, tuples and
  /// transitions, and their order, are those of the unpruned SOS rules.
  Imc explore(const ExploreOptions& options = {}) const;

  /// Number of component leaves.
  std::size_t num_leaves() const { return leaves_.size(); }

  const std::shared_ptr<ActionTable>& action_table() const { return actions_; }

 private:
  CompositionExpr() = default;

  enum class NodeKind : std::uint8_t { Leaf, Parallel, Hide };
  struct Node {
    NodeKind kind = NodeKind::Leaf;
    std::size_t leaf = 0;               // Leaf
    std::size_t left = 0, right = 0;    // Parallel
    std::size_t child = 0;              // Hide
    std::unordered_set<Action> sync;    // Parallel
    std::unordered_set<Action> hidden;  // Hide
    bool hide_everything = false;       // Hide
  };

  std::shared_ptr<ActionTable> actions_;
  std::vector<Imc> leaves_;
  std::vector<Node> nodes_;
  std::size_t root_ = 0;

  static CompositionExpr combine(CompositionExpr&& a, CompositionExpr&& b, Node&& parent);
  friend class ComposeExplorer;
};

/// Convenience: a |[sync]| b, fully explored.
Imc parallel_compose(const Imc& a, const std::unordered_set<Action>& sync, const Imc& b,
                     const ExploreOptions& options = {});

}  // namespace unicon
