// Continuous-time Markov decision processes (Def. 1 of the paper).
//
// The "mild variation" of CTMDPs is implemented: a state may have several
// transitions carrying the same action (they arise naturally from the
// uIMC -> uCTMDP transformation, where each Markov state of the strictly
// alternating IMC becomes one transition/rate function).
//
// Storage follows the paper's implementation notes (Sec. 4.2): transitions
// are kept as sparse rows, label (action word) information separately from
// rate information, with transitions in one-to-one correspondence to the
// rate functions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "support/sparse.hpp"
#include "support/symbols.hpp"

namespace unicon {

class CtmdpBuilder;

class Ctmdp {
 public:
  Ctmdp()
      : actions_(std::make_shared<ActionTable>()), words_(std::make_shared<WordTable>()) {}

  std::size_t num_states() const { return state_row_.empty() ? 0 : state_row_.size() - 1; }
  std::size_t num_transitions() const { return labels_.size(); }
  /// Total number of sparse (target, rate) entries over all transitions.
  std::size_t num_rate_entries() const { return entries_.size(); }
  StateId initial() const { return initial_; }

  const ActionTable& actions() const { return *actions_; }
  const WordTable& words() const { return *words_; }
  const std::shared_ptr<ActionTable>& action_table() const { return actions_; }
  const std::shared_ptr<WordTable>& word_table() const { return words_; }

  /// Transition indices emanating from state @p s: [first, last).
  std::pair<std::uint64_t, std::uint64_t> transition_range(StateId s) const {
    return {state_row_[s], state_row_[s + 1]};
  }
  std::size_t num_transitions_of(StateId s) const { return state_row_[s + 1] - state_row_[s]; }

  /// Action word labelling transition @p t.
  WordId label(std::uint64_t t) const { return labels_[t]; }

  /// Rate function R of transition @p t as sparse (target, rate) entries.
  std::span<const SparseEntry> rates(std::uint64_t t) const {
    return std::span<const SparseEntry>(entries_.data() + trans_row_[t],
                                        entries_.data() + trans_row_[t + 1]);
  }

  /// Exit rate E_R of transition @p t (cached cumulative rate).
  double exit_rate(std::uint64_t t) const { return exit_[t]; }

  /// Source state of transition @p t.
  StateId source(std::uint64_t t) const { return source_[t]; }

  /// If all transition exit rates agree up to @p tol, the common rate.
  /// States without transitions and rate-0 models yield 0.
  std::optional<double> uniform_rate(double tol = 1e-9) const;
  bool is_uniform(double tol = 1e-9) const { return uniform_rate(tol).has_value(); }

  /// Pads every transition with a self-loop rate so all exit rates equal
  /// @p rate (0 = maximal exit rate).  NOTE: unlike for CTMCs this is *not*
  /// a behaviour-preserving operation in general — time-abstract schedulers
  /// can observe the extra self-loop steps.  It is provided for the
  /// ablation study and for models known to be insensitive.
  Ctmdp uniformize(double rate = 0.0) const;

  /// Bytes consumed by the transition storage.
  std::size_t memory_bytes() const;

 private:
  friend class CtmdpBuilder;
  std::shared_ptr<ActionTable> actions_;
  std::shared_ptr<WordTable> words_;
  StateId initial_ = 0;
  std::vector<std::uint64_t> state_row_;  // per state: first transition index
  std::vector<StateId> source_;           // per transition
  std::vector<WordId> labels_;            // per transition
  std::vector<std::uint64_t> trans_row_;  // per transition: first entry index
  std::vector<SparseEntry> entries_;      // (target, rate)
  std::vector<double> exit_;              // per transition
};

class Ctmc;

/// Embeds a CTMC as a deterministic CTMDP: every non-absorbing state gets a
/// single tau-labeled transition carrying its rate row.  Lets the CTMDP
/// analyses (unbounded reachability, expected time, ...) run on chains.
Ctmdp ctmdp_from_ctmc(const Ctmc& chain);

/// Builder: transitions are added one at a time; entries of the current
/// transition are accumulated until the next begin_transition/build call.
/// build() orders transitions by source (stably) and sorts and merges each
/// transition's entries by target.
class CtmdpBuilder {
 public:
  CtmdpBuilder(std::shared_ptr<ActionTable> actions = nullptr,
               std::shared_ptr<WordTable> words = nullptr);

  StateId add_state();
  void ensure_states(std::size_t n);
  void set_initial(StateId s) { initial_ = s; }

  /// Starts a new transition (s, word, .).
  void begin_transition(StateId from, WordId word);
  /// Convenience: starts a transition labelled with the single-action word
  /// of @p action (interning the action name).
  void begin_transition(StateId from, std::string_view action);

  /// Adds rate mass R(to) += rate to the current transition.
  void add_rate(StateId to, double rate);

  Action intern_action(std::string_view name) { return actions_->intern(name); }
  WordId intern_word(std::span<const Action> word) { return words_->intern(word); }
  const std::shared_ptr<ActionTable>& action_table() const { return actions_; }
  const std::shared_ptr<WordTable>& word_table() const { return words_; }

  Ctmdp build();

 private:
  /// Entries [first, last) of the shared pool.
  struct PendingTransition {
    StateId from;
    WordId word;
    std::uint64_t first;
    std::uint64_t last;
  };

  void flush();

  std::shared_ptr<ActionTable> actions_;
  std::shared_ptr<WordTable> words_;
  std::size_t num_states_ = 0;
  StateId initial_ = 0;
  std::vector<PendingTransition> transitions_;
  std::vector<SparseEntry> entries_;  // every transition's entries, in insertion order
  bool open_ = false;                 // transitions_.back() is still accumulating
};

}  // namespace unicon
