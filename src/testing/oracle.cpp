#include "testing/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "support/errors.hpp"
#include "support/fox_glynn.hpp"

namespace unicon::testing {

DenseModel dense_from_ctmdp(const Ctmdp& model) {
  DenseModel d;
  d.num_states = model.num_states();
  d.initial = model.initial();
  d.choices.resize(d.num_states);
  bool have_rate = false;
  for (StateId s = 0; s < d.num_states; ++s) {
    const auto [first, last] = model.transition_range(s);
    for (std::uint64_t t = first; t < last; ++t) {
      double exit = 0.0;
      for (const SparseEntry& e : model.rates(t)) exit += e.value;
      if (!have_rate) {
        d.uniform_rate = exit;
        have_rate = true;
      } else if (!rates_agree(exit, d.uniform_rate, 1e-6)) {
        throw UniformityError("dense_from_ctmdp: exit rates disagree");
      }
      std::vector<double> row(d.num_states, 0.0);
      for (const SparseEntry& e : model.rates(t)) row[e.col] += e.value / exit;
      d.choices[s].push_back(std::move(row));
    }
  }
  return d;
}

namespace {

/// Smallest k such that the Poisson(lambda) mass above k is <= eps, found
/// by direct summation of the reference pmf.
std::uint64_t naive_truncation_point(double lambda, double eps) {
  if (lambda <= 0.0) return 0;
  double cumulative = 0.0;
  for (std::uint64_t k = 0;; ++k) {
    cumulative += poisson_pmf(k, lambda);
    if (cumulative >= 1.0 - eps) return k;
    if (k > 10 + static_cast<std::uint64_t>(lambda + 200.0 * std::sqrt(lambda + 1.0))) {
      // Far beyond any possible truncation point: cumulative arithmetic
      // has saturated; the remaining mass is below double resolution.
      return k;
    }
  }
}

double sweep_value(const std::vector<std::vector<double>>& state_choices,
                   const std::vector<double>& q, const BitVector& goal, double w,
                   bool maximize) {
  double best = maximize ? -1.0 : 2.0;
  for (const std::vector<double>& row : state_choices) {
    double acc = 0.0;
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j] == 0.0) continue;
      acc += row[j] * q[j];
      if (goal[j]) acc += row[j] * w;
    }
    best = maximize ? std::max(best, acc) : std::min(best, acc);
  }
  return best;
}

}  // namespace

std::vector<double> naive_timed_reachability(const DenseModel& model,
                                             const BitVector& goal, double t, double eps,
                                             Objective objective) {
  if (goal.size() != model.num_states) {
    throw ModelError("naive_timed_reachability: goal vector size mismatch");
  }
  if (t < 0.0) throw ModelError("naive_timed_reachability: negative time bound");
  const double lambda = model.uniform_rate * t;
  const std::uint64_t k = naive_truncation_point(lambda, eps);
  const bool maximize = objective == Objective::Maximize;

  std::vector<double> q(model.num_states, 0.0);
  std::vector<double> q_prev(model.num_states, 0.0);
  for (std::uint64_t i = k; i >= 1; --i) {
    const double w = poisson_pmf(i, lambda);
    q_prev.swap(q);
    for (std::size_t s = 0; s < model.num_states; ++s) {
      if (goal[s]) {
        q[s] = w + q_prev[s];
      } else if (model.choices[s].empty()) {
        q[s] = 0.0;
      } else {
        q[s] = sweep_value(model.choices[s], q_prev, goal, w, maximize);
      }
    }
  }
  for (std::size_t s = 0; s < model.num_states; ++s) {
    if (goal[s]) {
      q[s] = 1.0;
    } else {
      q[s] = std::min(1.0, std::max(0.0, q[s]));
    }
  }
  return q;
}

std::vector<double> naive_step_bounded(const DenseModel& model, const BitVector& goal,
                                       std::uint64_t steps, Objective objective) {
  if (goal.size() != model.num_states) {
    throw ModelError("naive_step_bounded: goal vector size mismatch");
  }
  const bool maximize = objective == Objective::Maximize;
  std::vector<double> v(model.num_states, 0.0);
  std::vector<double> v_prev(model.num_states, 0.0);
  for (std::size_t s = 0; s < model.num_states; ++s) v[s] = goal[s] ? 1.0 : 0.0;
  for (std::uint64_t step = 0; step < steps; ++step) {
    v_prev.swap(v);
    for (std::size_t s = 0; s < model.num_states; ++s) {
      if (goal[s]) {
        v[s] = 1.0;
      } else if (model.choices[s].empty()) {
        v[s] = 0.0;
      } else {
        double best = maximize ? -1.0 : 2.0;
        for (const std::vector<double>& row : model.choices[s]) {
          double acc = 0.0;
          for (std::size_t j = 0; j < row.size(); ++j) acc += row[j] * v_prev[j];
          best = maximize ? std::max(best, acc) : std::min(best, acc);
        }
        v[s] = best;
      }
    }
  }
  return v;
}

namespace {

/// Point keys for the brute-force normal form: plain original states
/// (decision or absorbing), pair states (w, u) for Markov->Markov edges,
/// and a fresh pre-initial point when the initial state is timed.
constexpr std::uint64_t kStateTag = 1ull << 62;
constexpr std::uint64_t kInitTag = 1ull << 63;

std::uint64_t state_key(StateId s) { return kStateTag | s; }
std::uint64_t pair_state_key(StateId w, StateId u) {
  return (static_cast<std::uint64_t>(w) << 32) | u;
}

struct Closure {
  std::vector<StateId> markov_targets;  // sorted, deduplicated
  bool goal_exists = false;
  bool goal_universal = false;
};

}  // namespace

BruteTransform bruteforce_transform(const Imc& closed, const BitVector& goal) {
  if (goal.size() != closed.num_states()) {
    throw ModelError("bruteforce_transform: goal vector size mismatch");
  }
  const Imc& m = closed;
  const std::size_t n = m.num_states();

  // Urgency view of the closed model: any interactive transition preempts
  // Markov delays, so a state is a decision point iff it has interactive
  // transitions, a timed (Markov) state iff it only has Markov transitions.
  auto decision = [&](StateId s) { return m.has_interactive(s); };
  auto timed = [&](StateId s) { return !m.has_interactive(s) && m.has_markov(s); };

  // --- Zero-time closure of every decision state (memoized DFS) ----------
  enum class Color : std::uint8_t { White, Grey, Black };
  std::vector<Color> color(n, Color::White);
  std::vector<Closure> closure(n);

  auto fold_closure = [&](StateId v, auto&& self) -> void {
    if (color[v] == Color::Black) return;
    if (color[v] == Color::Grey) {
      throw ZenoError("bruteforce_transform: cycle of interactive transitions");
    }
    color[v] = Color::Grey;
    Closure& c = closure[v];
    c.goal_exists = goal[v];
    c.goal_universal = true;
    for (const LtsTransition& t : m.out_interactive(v)) {
      if (decision(t.to)) {
        self(t.to, self);
        const Closure& sub = closure[t.to];
        c.markov_targets.insert(c.markov_targets.end(), sub.markov_targets.begin(),
                                sub.markov_targets.end());
        c.goal_exists = c.goal_exists || sub.goal_exists;
        c.goal_universal = c.goal_universal && sub.goal_universal;
      } else if (timed(t.to)) {
        c.markov_targets.push_back(t.to);
        c.goal_exists = c.goal_exists || goal[t.to];
        c.goal_universal = c.goal_universal && goal[t.to];
      } else {
        throw ModelError("bruteforce_transform: zero-time deadlock");
      }
    }
    c.goal_universal = c.goal_universal || goal[v];
    std::sort(c.markov_targets.begin(), c.markov_targets.end());
    c.markov_targets.erase(std::unique(c.markov_targets.begin(), c.markov_targets.end()),
                           c.markov_targets.end());
    color[v] = Color::Black;
  };

  // --- Discover the reachable decision points ----------------------------
  // Point = CTMDP state of the normal form: a decision state, an absorbing
  // original state, a (w, u) pair for a Markov->Markov edge, or the fresh
  // pre-initial point.  Successor points of sojourning in timed state w are
  // read off w's rate row.
  std::unordered_map<std::uint64_t, StateId> point_id;
  std::vector<std::uint64_t> point_key;
  std::deque<std::uint64_t> worklist;
  auto intern = [&](std::uint64_t key) -> StateId {
    auto it = point_id.find(key);
    if (it != point_id.end()) return it->second;
    const StateId id = static_cast<StateId>(point_key.size());
    point_id.emplace(key, id);
    point_key.push_back(key);
    worklist.push_back(key);
    return id;
  };
  auto target_key = [&](StateId w, StateId u) -> std::uint64_t {
    // Successor u of timed state w, as a point key.
    return timed(u) ? pair_state_key(w, u) : state_key(u);
  };

  const StateId s0 = m.initial();
  std::uint64_t initial_key;
  if (decision(s0)) {
    initial_key = state_key(s0);
  } else if (timed(s0)) {
    initial_key = kInitTag;
  } else {
    throw ModelError("bruteforce_transform: initial state is absorbing");
  }
  intern(initial_key);

  // Expand: every point's choice rows reference further points.  Points are
  // interned in FIFO order and processed in that same order, so sojourns[p]
  // lines up with point id p.
  std::vector<std::vector<StateId>> sojourns;  // per point: timed states of its choices
  while (!worklist.empty()) {
    const std::uint64_t key = worklist.front();
    worklist.pop_front();
    std::vector<StateId> rows;
    if (key == kInitTag) {
      rows.push_back(s0);
    } else if (key & kStateTag) {
      const StateId v = static_cast<StateId>(key & ~kStateTag);
      if (decision(v)) {
        fold_closure(v, fold_closure);
        rows = closure[v].markov_targets;
      }  // absorbing original state: no choices
    } else {
      rows.push_back(static_cast<StateId>(key & 0xffffffffu));  // pair (w, u): sojourn in u
    }
    for (const StateId w : rows) {
      for (const MarkovTransition& t : m.out_markov(w)) intern(target_key(w, t.to));
    }
    sojourns.push_back(std::move(rows));
  }

  // --- Materialize the dense model ---------------------------------------
  BruteTransform result;
  DenseModel& d = result.model;
  d.num_states = point_key.size();
  d.initial = point_id.at(initial_key);
  d.choices.resize(d.num_states);
  result.goal_exists.assign(d.num_states, false);
  result.goal_universal.assign(d.num_states, false);

  bool have_rate = false;
  for (StateId p = 0; p < d.num_states; ++p) {
    const std::uint64_t key = point_key[p];
    // Goal transfer.
    if (key == kInitTag) {
      result.goal_exists[p] = goal[s0];
      result.goal_universal[p] = goal[s0];
    } else if (key & kStateTag) {
      const StateId v = static_cast<StateId>(key & ~kStateTag);
      if (decision(v)) {
        result.goal_exists[p] = closure[v].goal_exists;
        result.goal_universal[p] = closure[v].goal_universal;
      } else {
        result.goal_exists[p] = goal[v];
        result.goal_universal[p] = goal[v];
      }
    } else {
      const StateId u = static_cast<StateId>(key & 0xffffffffu);
      result.goal_exists[p] = goal[u];
      result.goal_universal[p] = goal[u];
    }
    // Choice rows.
    for (const StateId w : sojourns[p]) {
      double exit = 0.0;
      for (const MarkovTransition& t : m.out_markov(w)) exit += t.rate;
      if (!have_rate) {
        d.uniform_rate = exit;
        have_rate = true;
      }
      std::vector<double> row(d.num_states, 0.0);
      for (const MarkovTransition& t : m.out_markov(w)) {
        row[point_id.at(target_key(w, t.to))] += t.rate / exit;
      }
      d.choices[p].push_back(std::move(row));
    }
  }

  // Fingerprints for the structural comparison.
  for (StateId p = 0; p < d.num_states; ++p) {
    result.sorted_choice_counts.push_back(d.choices[p].size());
    for (const std::vector<double>& row : d.choices[p]) {
      std::size_t nonzero = 0;
      for (double x : row) nonzero += x != 0.0;
      result.sorted_entry_counts.push_back(nonzero);
    }
  }
  std::sort(result.sorted_choice_counts.begin(), result.sorted_choice_counts.end());
  std::sort(result.sorted_entry_counts.begin(), result.sorted_entry_counts.end());
  return result;
}

std::optional<std::string> check_transform(const Imc& closed, const BitVector& goal,
                                           const TransformResult& transformed) {
  const BruteTransform brute = bruteforce_transform(closed, goal);
  const Ctmdp& c = transformed.ctmdp;

  auto mismatch = [](const std::string& what, double expected, double actual) {
    return what + ": oracle " + std::to_string(expected) + " vs optimized " +
           std::to_string(actual);
  };

  if (brute.model.num_states != c.num_states()) {
    return mismatch("CTMDP state count", static_cast<double>(brute.model.num_states),
                    static_cast<double>(c.num_states()));
  }
  std::vector<std::size_t> choice_counts, entry_counts;
  for (StateId s = 0; s < c.num_states(); ++s) {
    choice_counts.push_back(c.num_transitions_of(s));
  }
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    entry_counts.push_back(c.rates(t).size());
  }
  std::sort(choice_counts.begin(), choice_counts.end());
  std::sort(entry_counts.begin(), entry_counts.end());
  if (choice_counts != brute.sorted_choice_counts) {
    return std::optional<std::string>("per-state transition count multiset differs");
  }
  if (entry_counts != brute.sorted_entry_counts) {
    return std::optional<std::string>("per-transition entry count multiset differs");
  }

  const auto optimized_rate = c.uniform_rate();
  if (!optimized_rate) return std::optional<std::string>("optimized CTMDP is not uniform");
  if (c.num_transitions() > 0 &&
      std::fabs(*optimized_rate - brute.model.uniform_rate) > 1e-9) {
    return mismatch("uniform rate", brute.model.uniform_rate, *optimized_rate);
  }

  auto count = [](const BitVector& mask) { return static_cast<double>(mask.count()); };
  if (count(transformed.goal) != count(brute.goal_exists)) {
    return mismatch("existential goal count", count(brute.goal_exists), count(transformed.goal));
  }
  if (count(transformed.goal_universal) != count(brute.goal_universal)) {
    return mismatch("universal goal count", count(brute.goal_universal),
                    count(transformed.goal_universal));
  }
  return std::nullopt;
}

UniformityAudit audit_uniformity(const Imc& m, UniformityView view, double tol) {
  // Own reachability sweep over both transition relations.
  BitVector reachable(m.num_states(), false);
  std::deque<StateId> queue{m.initial()};
  reachable[m.initial()] = true;
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (const LtsTransition& t : m.out_interactive(s)) {
      if (!reachable[t.to]) {
        reachable[t.to] = true;
        queue.push_back(t.to);
      }
    }
    for (const MarkovTransition& t : m.out_markov(s)) {
      if (!reachable[t.to]) {
        reachable[t.to] = true;
        queue.push_back(t.to);
      }
    }
  }

  UniformityAudit audit;
  double sum = 0.0;
  std::size_t constrained = 0;
  std::vector<double> exit(m.num_states(), 0.0);
  std::vector<StateId> states;
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (!reachable[s]) continue;
    bool is_constrained;
    if (view == UniformityView::Open) {
      bool tau = false;
      for (const LtsTransition& t : m.out_interactive(s)) tau = tau || t.action == kTau;
      is_constrained = !tau;
    } else {
      is_constrained = m.out_interactive(s).empty();
    }
    if (!is_constrained) continue;
    double e = 0.0;
    for (const MarkovTransition& t : m.out_markov(s)) e += t.rate;
    exit[s] = e;
    states.push_back(s);
    sum += e;
    ++constrained;
  }
  if (constrained == 0) {
    audit.uniform = true;
    return audit;
  }
  audit.rate = sum / static_cast<double>(constrained);
  for (const StateId s : states) {
    const double dev = std::fabs(exit[s] - audit.rate);
    if (dev > audit.max_deviation) {
      audit.max_deviation = dev;
      audit.worst_state = s;
    }
  }
  audit.uniform = audit.max_deviation <= tol;
  return audit;
}

Ctmc ctmc_from_deterministic_ctmdp(const Ctmdp& model) {
  CtmcBuilder b(model.num_states());
  b.ensure_states(model.num_states());
  b.set_initial(model.initial());
  for (StateId s = 0; s < model.num_states(); ++s) {
    const auto [first, last] = model.transition_range(s);
    if (last - first > 1) {
      throw ModelError("ctmc_from_deterministic_ctmdp: state has a choice");
    }
    if (first == last) continue;
    for (const SparseEntry& e : model.rates(first)) b.add_transition(s, e.value, e.col);
  }
  return b.build();
}

Ctmc induced_ctmc(const Ctmdp& model, const std::vector<std::uint64_t>& choice) {
  CtmcBuilder b(model.num_states());
  b.ensure_states(model.num_states());
  b.set_initial(model.initial());
  for (StateId s = 0; s < model.num_states(); ++s) {
    const auto [first, last] = model.transition_range(s);
    if (first == last) continue;
    const std::uint64_t tr = choice[s];
    if (tr < first || tr >= last) throw ModelError("induced_ctmc: bad choice");
    for (const SparseEntry& e : model.rates(tr)) b.add_transition(s, e.value, e.col);
  }
  return b.build();
}

}  // namespace unicon::testing
