#include "imc/imc.hpp"

#include <algorithm>
#include <cmath>

#include "support/errors.hpp"
#include "support/bit_vector.hpp"
#include "support/numerics.hpp"

namespace unicon {

namespace {

const std::string kEmptyName;

/// Sorts one row in place, keeping ties in their input order: insertion
/// sort for short rows, std::stable_sort beyond.
template <class T, class Less>
void sort_row(T* first, T* last, Less less) {
  if (last - first > 32) {
    std::stable_sort(first, last, less);
    return;
  }
  if (last - first < 2) return;
  for (T* i = first + 1; i != last; ++i) {
    if (!less(*i, i[-1])) continue;
    const T value = *i;
    T* j = i;
    do {
      *j = j[-1];
    } while (--j != first && less(value, j[-1]));
    *j = value;
  }
}

/// Groups @p transitions by source, each row in its input order (a stable
/// counting sort, skipped when they are grouped already), and fills @p row
/// with the n + 1 row offsets.
template <class T>
void group_by_source(std::vector<T>& transitions, std::vector<std::uint64_t>& row, std::size_t n) {
  row.assign(n + 1, 0);
  bool grouped = true;
  StateId previous = 0;
  for (const T& t : transitions) {
    ++row[t.from + 1];
    grouped = grouped && t.from >= previous;
    previous = t.from;
  }
  for (std::size_t i = 0; i < n; ++i) row[i + 1] += row[i];
  if (grouped) return;
  std::vector<T> sorted(transitions.size());
  std::vector<std::uint64_t> next(row.begin(), row.end() - 1);
  for (const T& t : transitions) sorted[next[t.from]++] = t;
  transitions.swap(sorted);
}

}  // namespace

const std::string& Imc::state_name(StateId s) const {
  if (s < state_names_.size()) return state_names_[s];
  return kEmptyName;
}

void Imc::index() {
  group_by_source(itrans_, irow_, num_states_);
  std::uint64_t kept = 0;
  for (std::size_t s = 0; s < num_states_; ++s) {
    LtsTransition* const first = itrans_.data() + irow_[s];
    LtsTransition* const last = itrans_.data() + irow_[s + 1];
    sort_row(first, last, [](const LtsTransition& a, const LtsTransition& b) {
      return a.action != b.action ? a.action < b.action : a.to < b.to;
    });
    irow_[s] = kept;
    for (const LtsTransition* t = first; t != last; ++t) {
      if (kept == irow_[s] || !(itrans_[kept - 1] == *t)) itrans_[kept++] = *t;
    }
  }
  irow_[num_states_] = kept;
  itrans_.resize(kept);

  group_by_source(mtrans_, mrow_, num_states_);
  for (std::size_t s = 0; s < num_states_; ++s) {
    sort_row(mtrans_.data() + mrow_[s], mtrans_.data() + mrow_[s + 1],
             [](const MarkovTransition& a, const MarkovTransition& b) { return a.to < b.to; });
  }
}

StateKind Imc::kind(StateId s) const {
  const bool i = has_interactive(s);
  const bool m = has_markov(s);
  if (i && m) return StateKind::Hybrid;
  if (i) return StateKind::Interactive;
  if (m) return StateKind::Markov;
  return StateKind::Absorbing;
}

bool Imc::has_tau(StateId s) const {
  const auto ts = out_interactive(s);
  // Transitions are sorted by action; tau has the smallest id.
  return !ts.empty() && ts.front().action == kTau;
}

double Imc::exit_rate(StateId s) const {
  double e = 0.0;
  for (const MarkovTransition& t : out_markov(s)) e += t.rate;
  return e;
}

double Imc::rate(StateId s, StateId to) const {
  double e = 0.0;
  for (const MarkovTransition& t : out_markov(s)) {
    if (t.to == to) e += t.rate;
  }
  return e;
}

std::optional<double> Imc::uniform_rate(UniformityView view, double tol) const {
  // Determine reachable states first; unreachable states may carry arbitrary
  // rates without affecting behaviour (Sec. 3).
  BitVector reach(num_states_, false);
  std::vector<StateId> stack{initial_};
  reach[initial_] = true;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const auto& t : out_interactive(s)) {
      if (!reach[t.to]) { reach[t.to] = true; stack.push_back(t.to); }
    }
    for (const auto& t : out_markov(s)) {
      if (!reach[t.to]) { reach[t.to] = true; stack.push_back(t.to); }
    }
  }

  std::optional<double> rate;
  for (StateId s = 0; s < num_states_; ++s) {
    if (!reach[s]) continue;
    const bool constrained =
        view == UniformityView::Open ? stable(s) : !has_interactive(s);
    if (!constrained) continue;
    const double e = exit_rate(s);
    if (!rate) {
      rate = e;
    } else if (!rates_agree(*rate, e, tol)) {
      return std::nullopt;
    }
  }
  return rate ? rate : std::optional<double>(0.0);
}

Imc Imc::uniformize(double rate, UniformityView view) const {
  auto constrained = [&](StateId s) {
    return view == UniformityView::Open ? stable(s) : !has_interactive(s);
  };
  double target = rate;
  if (target == 0.0) {
    for (StateId s = 0; s < num_states_; ++s) {
      if (constrained(s)) target = std::max(target, exit_rate(s));
    }
  }
  auto pad_of = [&](StateId s) {
    if (!constrained(s)) return 0.0;
    const double pad = target - exit_rate(s);
    if (pad < -kUniformityTolerance * target) {
      throw UniformityError("Imc::uniformize: rate below exit rate of a constrained state");
    }
    return pad > kUniformityTolerance * target ? pad : 0.0;
  };
  std::size_t pads = 0;
  for (StateId s = 0; s < num_states_; ++s) pads += pad_of(s) > 0.0 ? 1 : 0;

  Imc result;
  result.actions_ = actions_;
  result.num_states_ = num_states_;
  result.initial_ = initial_;
  result.itrans_ = itrans_;
  result.irow_ = irow_;
  result.state_names_ = state_names_;
  // Each row is written once, its pad after the row's own self-loops: the
  // row stays target-sorted, with the pad last among its ties.
  result.mtrans_.reserve(mtrans_.size() + pads);
  result.mrow_.assign(num_states_ + 1, 0);
  for (StateId s = 0; s < num_states_; ++s) {
    const auto row = out_markov(s);
    const auto split = std::find_if(row.begin(), row.end(),
                                    [s](const MarkovTransition& t) { return t.to > s; });
    const double pad = pad_of(s);
    result.mtrans_.insert(result.mtrans_.end(), row.begin(), split);
    if (pad > 0.0) result.mtrans_.push_back(MarkovTransition{s, pad, s});
    result.mtrans_.insert(result.mtrans_.end(), split, row.end());
    result.mrow_[s + 1] = result.mtrans_.size();
  }
  return result;
}

Imc Imc::hide(const std::unordered_set<Action>& hidden) const {
  Imc result = *this;
  for (LtsTransition& t : result.itrans_) {
    if (hidden.count(t.action) != 0) t.action = kTau;
  }
  result.index();
  return result;
}

Imc Imc::hide_all() const {
  Imc result = *this;
  for (LtsTransition& t : result.itrans_) t.action = kTau;
  result.index();
  return result;
}

Imc Imc::relabel(const std::unordered_map<Action, Action>& renaming) const {
  Imc result = *this;
  for (LtsTransition& t : result.itrans_) {
    auto it = renaming.find(t.action);
    if (it != renaming.end()) t.action = it->second;
  }
  result.index();
  return result;
}

Imc Imc::reachable() const {
  std::vector<StateId> remap(num_states_, kNoState);
  std::vector<StateId> order{initial_};
  std::vector<StateId> stack{initial_};
  remap[initial_] = 0;
  StateId next_id = 1;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const auto& t : out_interactive(s)) {
      if (remap[t.to] == kNoState) {
        remap[t.to] = next_id++;
        order.push_back(t.to);
        stack.push_back(t.to);
      }
    }
    for (const auto& t : out_markov(s)) {
      if (remap[t.to] == kNoState) {
        remap[t.to] = next_id++;
        order.push_back(t.to);
        stack.push_back(t.to);
      }
    }
  }

  ImcBuilder b(actions_);
  for (StateId old : order) b.add_state(state_name(old));
  b.set_initial(0);
  for (const auto& t : itrans_) {
    if (remap[t.from] != kNoState) b.add_interactive(remap[t.from], t.action, remap[t.to]);
  }
  for (const auto& t : mtrans_) {
    if (remap[t.from] != kNoState) b.add_markov(remap[t.from], t.rate, remap[t.to]);
  }
  return b.build();
}

std::vector<Action> Imc::visible_alphabet() const {
  BitVector seen(actions_->size(), false);
  for (const auto& t : itrans_) {
    if (t.action != kTau) seen[t.action] = true;
  }
  std::vector<Action> result;
  for (Action a = 0; a < seen.size(); ++a) {
    if (seen[a]) result.push_back(a);
  }
  return result;
}

Imc Imc::rename_states(std::vector<std::string> names) const {
  if (names.size() != num_states_) throw ModelError("rename_states: size mismatch");
  Imc result = *this;
  result.state_names_ = std::move(names);
  return result;
}

std::size_t Imc::memory_bytes() const {
  return itrans_.size() * sizeof(LtsTransition) + irow_.size() * sizeof(std::uint64_t) +
         mtrans_.size() * sizeof(MarkovTransition) + mrow_.size() * sizeof(std::uint64_t);
}

ImcBuilder::ImcBuilder(std::shared_ptr<ActionTable> actions)
    : actions_(actions ? std::move(actions) : std::make_shared<ActionTable>()) {}

StateId ImcBuilder::add_state(std::string name) {
  state_names_.push_back(std::move(name));
  return static_cast<StateId>(num_states_++);
}

void ImcBuilder::ensure_states(std::size_t n) {
  while (num_states_ < n) add_state();
}

void ImcBuilder::add_interactive(StateId from, Action action, StateId to) {
  itrans_.push_back(LtsTransition{from, action, to});
}

void ImcBuilder::add_interactive(StateId from, std::string_view action, StateId to) {
  add_interactive(from, actions_->intern(action), to);
}

void ImcBuilder::add_markov(StateId from, double rate, StateId to) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw ModelError("Imc: Markov transition rate must be positive and finite");
  }
  mtrans_.push_back(MarkovTransition{from, rate, to});
}

Imc ImcBuilder::build() {
  if (num_states_ == 0) throw ModelError("Imc: at least one state required");
  for (const auto& t : itrans_) {
    if (t.from >= num_states_ || t.to >= num_states_) {
      throw ModelError("Imc: interactive transition references unknown state");
    }
  }
  for (const auto& t : mtrans_) {
    if (t.from >= num_states_ || t.to >= num_states_) {
      throw ModelError("Imc: Markov transition references unknown state");
    }
  }
  if (initial_ >= num_states_) throw ModelError("Imc: initial state out of range");

  Imc imc;
  imc.actions_ = actions_;
  imc.num_states_ = num_states_;
  imc.initial_ = initial_;
  imc.itrans_ = std::move(itrans_);
  imc.mtrans_ = std::move(mtrans_);
  imc.state_names_ = std::move(state_names_);
  imc.index();

  num_states_ = 0;
  initial_ = 0;
  itrans_.clear();
  mtrans_.clear();
  state_names_.clear();
  return imc;
}

Imc imc_from_lts(const Lts& lts) {
  ImcBuilder b(lts.action_table());
  for (StateId s = 0; s < lts.num_states(); ++s) b.add_state(lts.state_name(s));
  b.set_initial(lts.initial());
  for (const LtsTransition& t : lts.transitions()) b.add_interactive(t.from, t.action, t.to);
  return b.build();
}

Imc imc_from_ctmc(const Ctmc& chain, std::shared_ptr<ActionTable> actions) {
  ImcBuilder b(std::move(actions));
  for (StateId s = 0; s < chain.num_states(); ++s) b.add_state();
  b.set_initial(chain.initial());
  for (StateId s = 0; s < chain.num_states(); ++s) {
    for (const SparseEntry& t : chain.out(s)) b.add_markov(s, t.value, t.col);
  }
  return b.build();
}

}  // namespace unicon
