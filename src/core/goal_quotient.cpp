#include "core/goal_quotient.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "bisim/bisimulation.hpp"
#include "support/errors.hpp"
#include "support/telemetry.hpp"

namespace unicon {

namespace {

constexpr StateId kNone = static_cast<StateId>(-1);

/// The live part of a model: its non-goal states, numbered in input order.
struct LiveCut {
  std::vector<StateId> index;  ///< per input state: live index, or kNone for a goal state
  std::vector<StateId> live;   ///< live index -> input state
  std::size_t goal_states = 0;
};

LiveCut cut_live(std::size_t n, const BitVector& goal) {
  if (goal.size() != n) throw ModelError("goal_quotient: goal vector size mismatch");
  LiveCut cut;
  cut.index.assign(n, kNone);
  for (StateId s = 0; s < n; ++s) {
    if (goal[s]) {
      ++cut.goal_states;
    } else {
      cut.index[s] = static_cast<StateId>(cut.live.size());
      cut.live.push_back(s);
    }
  }
  return cut;
}

/// The rows of the live part, over the live states 0..live_count-1 and
/// the sink live_count.  @p row_of(l, add) calls add with each rate
/// function of live state l, as its span of input (col, rate) entries.
/// A row's goal entries are summed, in input order, into one sink entry
/// at its end, so a row's sums and their order of first reach do not
/// depend on where goal states sit in the input numbering.
template <class RowOf>
TransitionRows live_rows(const LiveCut& cut, const BitVector& goal, RowOf&& row_of) {
  const auto sink = static_cast<StateId>(cut.live.size());
  TransitionRows rows;
  for (StateId l = 0; l < sink; ++l) {
    row_of(l, [&](std::span<const SparseEntry> rates) {
      double to_goal = 0.0;
      for (const SparseEntry& e : rates) {
        if (goal[e.col]) {
          to_goal += e.value;
        } else {
          rows.entries.push_back(SparseEntry{cut.index[e.col], e.value});
        }
      }
      if (to_goal > 0.0) rows.entries.push_back(SparseEntry{sink, to_goal});
      rows.first_entry.push_back(rows.entries.size());
    });
    rows.first_transition.push_back(rows.first_entry.size() - 1);
  }
  rows.first_transition.push_back(rows.first_transition.back());  // the sink's
  return rows;
}

/// The lumping of the live part, with the sink the only labelled state.
TransitionBisimulation lump_live(const TransitionRows& rows, RunGuard* guard) {
  std::vector<std::uint32_t> labels(rows.num_states(), 0);
  labels.back() = 1;
  return strong_bisimulation(rows, &labels, guard);
}

/// The quotient state of input state @p s: the block of its live state
/// (blocks are numbered in order of their first live state, so the sink's
/// block comes last).
StateId quotient_state(StateId s, const LiveCut& cut, const Partition& p) {
  const StateId l = cut.index[s];
  return l == kNone ? p.num_blocks - 1 : p.block_of[l];
}

/// Per block: its lowest member.
std::vector<StateId> first_members(const Partition& p) {
  std::vector<StateId> first(p.num_blocks, kNone);
  for (StateId x = static_cast<StateId>(p.num_states()); x-- > 0;) first[p.block_of[x]] = x;
  return first;
}

/// Fills the goal mask, the state map and the statistics, and gives the
/// span its metrics (its own seconds time the construction).
template <class Model>
void finish(GoalQuotient<Model>& q, const LiveCut& cut, const TransitionBisimulation& lumping,
            const Stopwatch& watch, std::optional<Telemetry::Span>& span) {
  const Partition& p = lumping.states;
  q.goal = BitVector(q.model.num_states(), false);
  q.goal[p.num_blocks - 1] = true;
  q.state_of.resize(cut.index.size());
  for (StateId s = 0; s < cut.index.size(); ++s) q.state_of[s] = quotient_state(s, cut, p);
  q.stats.states_in = cut.index.size();
  q.stats.goal_states_cut = cut.goal_states;
  q.stats.live_states = cut.live.size();
  q.stats.blocks_out = q.model.num_states();
  q.stats.rounds = lumping.rounds;
  q.stats.seconds = watch.seconds();
  if (!span) return;
  span->metric("states_in", q.stats.states_in);
  span->metric("live_states", q.stats.live_states);
  span->metric("blocks_out", q.stats.blocks_out);
  span->metric("goal_states_cut", q.stats.goal_states_cut);
  span->metric("rounds", q.stats.rounds);
  span->metric("defect", q.defect);
}

}  // namespace

CtmdpGoalQuotient goal_quotient(const Ctmdp& model, const BitVector& goal, RunGuard* guard,
                                Telemetry* telemetry) {
  // The cut would hide a non-uniform goal region from the solver's own
  // check, so the input is checked here, as a whole.
  if (!model.is_uniform()) {
    throw UniformityError(
        "goal_quotient: model is not uniform; construct it uniformly or uniformize first");
  }
  std::optional<Telemetry::Span> span;
  if (telemetry != nullptr) span.emplace(telemetry->span("reduce"));
  const Stopwatch watch;
  const LiveCut cut = cut_live(model.num_states(), goal);
  const TransitionRows rows = live_rows(cut, goal, [&](StateId l, auto&& add) {
    const auto [first, last] = model.transition_range(cut.live[l]);
    for (std::uint64_t t = first; t < last; ++t) add(model.rates(t));
  });
  const TransitionBisimulation lumping = lump_live(rows, guard);
  const Partition& p = lumping.states;
  const Partition& classes = lumping.transitions;
  const std::vector<StateId> first_state = first_members(p);
  const std::vector<StateId> first_row = first_members(classes);

  // Each live block takes its first member's transitions, one per distinct
  // class (with the word of the first one in it), and each class its first
  // member's lumped row.
  CtmdpGoalQuotient q;
  CtmdpBuilder qb(model.action_table(), model.word_table());
  const StateId sink = p.num_blocks - 1;
  qb.ensure_states(sink + 1);
  qb.set_initial(quotient_state(model.initial(), cut, p));
  std::vector<StateId> emitted_by(classes.num_blocks, kNone);
  for (StateId qs = 0; qs < sink; ++qs) {
    const StateId l = first_state[qs];
    const std::uint64_t input_first = model.transition_range(cut.live[l]).first;
    for (std::uint64_t t = rows.first_transition[l]; t < rows.first_transition[l + 1]; ++t) {
      const std::uint32_t c = classes.block_of[t];
      if (emitted_by[c] == qs) continue;
      emitted_by[c] = qs;
      qb.begin_transition(qs, model.label(input_first + (t - rows.first_transition[l])));
      for (const LumpedRate& r : lumping.row(first_row[c])) qb.add_rate(r.block, r.rate);
    }
  }
  q.model = qb.build();

  // The defect, in jump probabilities at the quotient's uniform rate.
  std::vector<double> class_row(p.num_blocks, 0.0);
  double worst = 0.0;
  for (StateId t = 0; t < classes.num_states(); ++t) {
    const StateId f = first_row[classes.block_of[t]];
    if (f == t) continue;
    double l1 = 0.0;
    for (const LumpedRate& r : lumping.row(f)) class_row[r.block] = r.rate;
    for (const LumpedRate& r : lumping.row(t)) l1 += std::fabs(r.rate - class_row[r.block]);
    worst = std::max(worst, l1);
  }
  if (worst > 0.0) {
    double e = 0.0;
    for (std::uint64_t t = 0; t < q.model.num_transitions(); ++t) {
      e = std::max(e, q.model.exit_rate(t));
    }
    q.defect = worst / e;
  }
  finish(q, cut, lumping, watch, span);
  return q;
}

CtmcGoalQuotient goal_quotient(const Ctmc& chain, const BitVector& goal, RunGuard* guard,
                               Telemetry* telemetry) {
  std::optional<Telemetry::Span> span;
  if (telemetry != nullptr) span.emplace(telemetry->span("reduce"));
  const Stopwatch watch;
  const LiveCut cut = cut_live(chain.num_states(), goal);
  // One rate function per live state: its row.
  const TransitionRows rows = live_rows(
      cut, goal, [&](StateId l, auto&& add) { add(chain.out(cut.live[l])); });
  const TransitionBisimulation lumping = lump_live(rows, guard);
  const Partition& p = lumping.states;
  const std::vector<StateId> first_state = first_members(p);

  // Each live block takes its first member's lumped row.
  CtmcGoalQuotient q;
  const StateId sink = p.num_blocks - 1;
  CtmcBuilder qb(sink + 1);
  qb.ensure_states(sink + 1);
  qb.set_initial(quotient_state(chain.initial(), cut, p));
  for (StateId qs = 0; qs < sink; ++qs) {
    for (const LumpedRate& r : lumping.row(first_state[qs])) {
      qb.add_transition(qs, r.rate, r.block);
    }
  }
  q.model = qb.build();

  // The defect, in jump probabilities of the chain uniformized at its
  // largest live exit rate: generator rows, so a member's own-block rate
  // counts net of its exit rate.
  std::vector<double> block_row(p.num_blocks, 0.0);
  double worst = 0.0;
  for (StateId l = 0; l < cut.live.size(); ++l) {
    const std::uint32_t own = p.block_of[l];
    const StateId f = first_state[own];
    if (f == l) continue;
    double exit_l = 0.0, exit_f = 0.0;
    for (const LumpedRate& r : lumping.row(f)) {
      block_row[r.block] = r.rate;
      exit_f += r.rate;
    }
    for (const LumpedRate& r : lumping.row(l)) exit_l += r.rate;
    double l1 = 0.0;
    bool own_reached = false;
    for (const LumpedRate& r : lumping.row(l)) {
      double diff = r.rate - block_row[r.block];
      if (r.block == own) {
        diff += exit_f - exit_l;
        own_reached = true;
      }
      l1 += std::fabs(diff);
    }
    if (!own_reached) l1 += std::fabs(exit_f - exit_l);
    worst = std::max(worst, l1);
  }
  if (worst > 0.0) {
    double e = 0.0;
    for (StateId qs = 0; qs < sink; ++qs) e = std::max(e, q.model.exit_rate(qs));
    q.defect = worst / e;
  }
  finish(q, cut, lumping, watch, span);
  return q;
}

}  // namespace unicon
