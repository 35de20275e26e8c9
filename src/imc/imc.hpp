// Interactive Markov chains (Def. 3 of the paper).
//
// An IMC superposes a labeled transition system (interactive transitions)
// and a CTMC (Markov transitions).  The library distinguishes the *open*
// view (maximal progress: internal tau actions preempt Markov transitions,
// visible actions are delayable) from the *closed* view (urgency: every
// interactive transition preempts Markov transitions; applied to complete
// models only, Sec. 2).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "lts/lts.hpp"
#include "support/numerics.hpp"
#include "support/symbols.hpp"

namespace unicon {

/// One Markov transition from --rate--> to.  The Markov transition relation
/// is a relation over S x R+ x S; parallel transitions between the same
/// states with different rates may coexist (footnote 1 of the paper) and are
/// kept separate until rates are accumulated by analysis code.
struct MarkovTransition {
  StateId from = 0;
  double rate = 0.0;
  StateId to = 0;

  friend bool operator==(const MarkovTransition&, const MarkovTransition&) = default;
};

/// State partition of Sec. 2: Markov (only Markov out), interactive (only
/// interactive out), hybrid (both), absorbing (neither).
enum class StateKind : std::uint8_t { Markov, Interactive, Hybrid, Absorbing };

/// Which states the uniformity condition constrains.
///  - Open (Def. 4): states without an outgoing tau transition ("stable").
///  - Closed: states without any outgoing interactive transition — under the
///    urgency assumption the rates of all other states are irrelevant.
enum class UniformityView : std::uint8_t { Open, Closed };

class ImcBuilder;

class Imc {
 public:
  Imc() : actions_(std::make_shared<ActionTable>()) {}

  std::size_t num_states() const { return num_states_; }
  std::size_t num_interactive_transitions() const { return itrans_.size(); }
  std::size_t num_markov_transitions() const { return mtrans_.size(); }
  StateId initial() const { return initial_; }

  const ActionTable& actions() const { return *actions_; }
  const std::shared_ptr<ActionTable>& action_table() const { return actions_; }

  /// Row order.  Transitions are stored grouped by source, in ascending
  /// source order.  An interactive row is sorted by (action, to), without
  /// duplicates, so tau comes first.  A Markov row is sorted by target;
  /// parallel transitions (same source and target) keep the order in which
  /// they were added, and uniformize() writes each pad after its row's
  /// self-loops.  Rate sums over a row therefore do not depend on how a
  /// sort breaks ties.
  std::span<const LtsTransition> out_interactive(StateId s) const {
    return std::span<const LtsTransition>(itrans_.data() + irow_[s], itrans_.data() + irow_[s + 1]);
  }
  std::span<const MarkovTransition> out_markov(StateId s) const {
    return std::span<const MarkovTransition>(mtrans_.data() + mrow_[s], mtrans_.data() + mrow_[s + 1]);
  }
  std::span<const LtsTransition> interactive_transitions() const { return itrans_; }
  std::span<const MarkovTransition> markov_transitions() const { return mtrans_; }

  const std::string& state_name(StateId s) const;

  StateKind kind(StateId s) const;

  /// s --tau--> exists?
  bool has_tau(StateId s) const;
  /// Stable in the sense of Def. 4: no outgoing tau transition.
  bool stable(StateId s) const { return !has_tau(s); }
  bool has_interactive(StateId s) const { return irow_[s] != irow_[s + 1]; }
  bool has_markov(StateId s) const { return mrow_[s] != mrow_[s + 1]; }

  /// Exit rate E_s = r(s, S).
  double exit_rate(StateId s) const;

  /// Cumulative rate from s to s' (sums parallel transitions).
  double rate(StateId s, StateId to) const;

  /// Checks Def. 4 on the *reachable* states (the paper restricts uniformity
  /// to reachable states, Sec. 3): if every constrained state has the same
  /// exit rate, returns it.  When no state is constrained, returns 0.
  /// Exit rates e and e0 count as the same while they agree relatively,
  /// |e - e0| <= tol * max(e, e0) (rates_agree), so the verdict does not
  /// depend on the time unit.
  std::optional<double> uniform_rate(UniformityView view = UniformityView::Open,
                                     double tol = kUniformityTolerance) const;
  bool is_uniform(UniformityView view = UniformityView::Open,
                  double tol = kUniformityTolerance) const {
    return uniform_rate(view, tol).has_value();
  }

  /// Pads constrained states (per @p view) with Markov self-loops so all
  /// their exit rates equal @p rate (0 = maximal constrained exit rate).
  /// Pads at or below kUniformityTolerance * rate are rounding and omitted.
  /// This is Jensen uniformization lifted to IMCs.
  Imc uniformize(double rate = 0.0, UniformityView view = UniformityView::Closed) const;

  /// Hiding (Sec. 3): all actions in @p hidden become tau; Markov
  /// transitions untouched.  Preserves uniformity (Lemma 1).
  Imc hide(const std::unordered_set<Action>& hidden) const;

  /// Hides every visible action.
  Imc hide_all() const;

  /// Relabels visible actions (process-algebraic renaming).
  Imc relabel(const std::unordered_map<Action, Action>& renaming) const;

  /// Restriction to states reachable from the initial state.
  Imc reachable() const;

  /// Sorted list of visible actions occurring on transitions.
  std::vector<Action> visible_alphabet() const;

  /// Returns a copy with the given state names (size must match).
  Imc rename_states(std::vector<std::string> names) const;

  /// Bytes consumed by the transition storage.
  std::size_t memory_bytes() const;

 private:
  friend class ImcBuilder;
  std::shared_ptr<ActionTable> actions_;
  std::size_t num_states_ = 0;
  StateId initial_ = 0;
  std::vector<LtsTransition> itrans_;
  std::vector<std::uint64_t> irow_;
  std::vector<MarkovTransition> mtrans_;
  std::vector<std::uint64_t> mrow_;
  std::vector<std::string> state_names_;

  /// Establishes the row order above and the row offsets: a stable
  /// counting sort by source (skipped when the rows are grouped already, as
  /// the explorer emits them), then each row sorted in place.
  void index();
};

class ImcBuilder {
 public:
  explicit ImcBuilder(std::shared_ptr<ActionTable> actions = nullptr);

  StateId add_state(std::string name = "");
  void ensure_states(std::size_t n);
  void set_initial(StateId s) { initial_ = s; }

  void add_interactive(StateId from, Action action, StateId to);
  void add_interactive(StateId from, std::string_view action, StateId to);
  void add_markov(StateId from, double rate, StateId to);

  Action intern(std::string_view name) { return actions_->intern(name); }
  const std::shared_ptr<ActionTable>& action_table() const { return actions_; }
  std::size_t num_states() const { return num_states_; }

  Imc build();

 private:
  std::shared_ptr<ActionTable> actions_;
  std::size_t num_states_ = 0;
  StateId initial_ = 0;
  std::vector<LtsTransition> itrans_;
  std::vector<MarkovTransition> mtrans_;
  std::vector<std::string> state_names_;
};

/// Embeds an LTS as an IMC (empty Markov relation; uniform with E = 0).
Imc imc_from_lts(const Lts& lts);

/// Embeds a CTMC as an IMC (empty interactive relation), sharing @p actions.
Imc imc_from_ctmc(const Ctmc& chain, std::shared_ptr<ActionTable> actions = nullptr);

}  // namespace unicon
