#include "core/goal_quotient.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "bisim/bisimulation.hpp"
#include "imc/imc.hpp"
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

/// Lumped rate rows of IMC states over a partition, summed by the
/// bisimulation's own RateLumper so that they match the signatures.
class Rows {
 public:
  Rows(const Imc& m, const Partition& p) : m_(m), p_(p), diff_(p.num_blocks, 0.0) {
    lumper_.reset(p.num_blocks);
  }

  /// @p emit(block, rate) per block that @p s reaches.
  template <class Emit>
  void lump(StateId s, Emit&& emit) {
    lumper_.lump(m_, s, p_.block_of, emit);
  }

  /// L1 distance between the lumped rows of @p s and @p t.  When @p own is
  /// a block, the rows are generator rows: each state's exit rate is
  /// subtracted on @p own.
  double distance(StateId s, StateId t, std::uint32_t own) {
    double exit_s = 0.0, exit_t = 0.0;
    lump(s, [&](std::uint32_t blk, double rate) {
      add(blk, rate);
      exit_s += rate;
    });
    lump(t, [&](std::uint32_t blk, double rate) {
      add(blk, -rate);
      exit_t += rate;
    });
    if (own != kNoBlock) add(own, exit_t - exit_s);
    double l1 = 0.0;
    for (const std::uint32_t blk : touched_) {
      l1 += std::fabs(diff_[blk]);
      diff_[blk] = 0.0;
    }
    touched_.clear();
    return l1;
  }

  static constexpr std::uint32_t kNoBlock = static_cast<std::uint32_t>(-1);

 private:
  void add(std::uint32_t blk, double x) {
    if (std::find(touched_.begin(), touched_.end(), blk) == touched_.end()) {
      touched_.push_back(blk);
    }
    diff_[blk] += x;
  }

  const Imc& m_;
  const Partition& p_;
  RateLumper lumper_;
  std::vector<double> diff_;
  std::vector<std::uint32_t> touched_;
};

/// Quotient state ids: the blocks of the live states 0..live_count-1 in
/// order of their first member, then the sink's block.
struct BlockNumbering {
  std::vector<StateId> id_of_block;   ///< kNone for blocks that are no quotient state
  std::vector<StateId> first_member;  ///< per live quotient state: its lowest live index
  StateId sink = 0;
};

BlockNumbering number_blocks(const Partition& p, std::size_t live_count, StateId sink_state) {
  BlockNumbering out;
  out.id_of_block.assign(p.num_blocks, kNone);
  for (StateId l = 0; l < live_count; ++l) {
    StateId& id = out.id_of_block[p.block_of[l]];
    if (id != kNone) continue;
    id = static_cast<StateId>(out.first_member.size());
    out.first_member.push_back(l);
  }
  out.sink = static_cast<StateId>(out.first_member.size());
  out.id_of_block[p.block_of[sink_state]] = out.sink;
  return out;
}

/// The quotient state of input state @p s.
StateId quotient_state(StateId s, const LiveCut& cut, const Partition& p,
                       const BlockNumbering& ids) {
  const StateId l = cut.index[s];
  return l == kNone ? ids.sink : ids.id_of_block[p.block_of[l]];
}

/// Fills the goal mask, the state map and the statistics, and closes the
/// span with its metrics.
template <class Model>
void finish(GoalQuotient<Model>& q, const LiveCut& cut, const Partition& p,
            const BlockNumbering& ids, const Stopwatch& watch,
            std::optional<Telemetry::Span>& span) {
  q.goal = BitVector(q.model.num_states(), false);
  q.goal[ids.sink] = true;
  q.state_of.resize(cut.index.size());
  for (StateId s = 0; s < cut.index.size(); ++s) q.state_of[s] = quotient_state(s, cut, p, ids);
  q.stats.states_in = cut.index.size();
  q.stats.goal_states_cut = cut.goal_states;
  q.stats.live_states = cut.live.size();
  q.stats.blocks_out = q.model.num_states();
  q.stats.seconds = watch.seconds();
  if (!span) return;
  span->metric("states_in", q.stats.states_in);
  span->metric("live_states", q.stats.live_states);
  span->metric("blocks_out", q.stats.blocks_out);
  span->metric("goal_states_cut", q.stats.goal_states_cut);
  span->metric("defect", q.defect);
  span->metric("seconds", q.stats.seconds);
}

}  // namespace

CtmdpGoalQuotient goal_quotient(const Ctmdp& model, const BitVector& goal,
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

  // The strictly alternating IMC of the live part: the live states, then
  // one Markov state per transition of a live state, then the sink.  Live
  // state l's transitions are the Markov states markov_begin[l] ..
  // markov_begin[l + 1] - 1, in transition order.
  const std::size_t live_count = cut.live.size();
  std::vector<std::uint64_t> transition_of;  // Markov state - live_count -> input transition
  std::vector<StateId> markov_begin(live_count + 1);
  for (StateId l = 0; l < live_count; ++l) {
    markov_begin[l] = static_cast<StateId>(live_count + transition_of.size());
    const auto [first, last] = model.transition_range(cut.live[l]);
    for (std::uint64_t t = first; t < last; ++t) transition_of.push_back(t);
  }
  const auto sink_state = static_cast<StateId>(live_count + transition_of.size());
  markov_begin[live_count] = sink_state;
  ImcBuilder b;
  b.ensure_states(sink_state + 1);
  const Action act = b.intern("a");
  // Labels: 0 live state, 1 transition (Markov) state, 2 the sink.
  std::vector<std::uint32_t> labels(sink_state + 1, 1);
  for (StateId l = 0; l < live_count; ++l) {
    labels[l] = 0;
    for (StateId m = markov_begin[l]; m < markov_begin[l + 1]; ++m) {
      b.add_interactive(l, act, m);
    }
  }
  labels[sink_state] = 2;
  for (std::size_t k = 0; k < transition_of.size(); ++k) {
    const auto markov = static_cast<StateId>(live_count + k);
    for (const SparseEntry& e : model.rates(transition_of[k])) {
      b.add_markov(markov, e.value, goal[e.col] ? sink_state : cut.index[e.col]);
    }
  }
  const Imc imc = b.build();
  const Partition p = strong_bisimulation(imc, &labels);
  const BlockNumbering ids = number_blocks(p, live_count, sink_state);
  std::vector<StateId> first_row(p.num_blocks, kNone);  // per transition block
  for (StateId m = static_cast<StateId>(live_count); m < sink_state; ++m) {
    if (first_row[p.block_of[m]] == kNone) first_row[p.block_of[m]] = m;
  }

  // Each live block takes its first member's transitions, one per distinct
  // transition block (with the word of the first one into it), and each
  // transition block its first member's lumped row.
  Rows rows(imc, p);
  CtmdpGoalQuotient q;
  CtmdpBuilder qb(model.action_table(), model.word_table());
  qb.ensure_states(ids.sink + 1);
  qb.set_initial(quotient_state(model.initial(), cut, p, ids));
  std::vector<StateId> emitted_by(p.num_blocks, kNone);
  for (StateId qs = 0; qs < ids.sink; ++qs) {
    const StateId l = ids.first_member[qs];
    for (StateId m = markov_begin[l]; m < markov_begin[l + 1]; ++m) {
      const std::uint32_t blk = p.block_of[m];
      if (emitted_by[blk] == qs) continue;
      emitted_by[blk] = qs;
      qb.begin_transition(qs, model.label(transition_of[m - live_count]));
      rows.lump(first_row[blk], [&](std::uint32_t to, double rate) {
        qb.add_rate(ids.id_of_block[to], rate);
      });
    }
  }
  q.model = qb.build();

  // The defect, in jump probabilities at the quotient's uniform rate.
  double worst = 0.0;
  for (StateId m = static_cast<StateId>(live_count); m < sink_state; ++m) {
    const StateId f = first_row[p.block_of[m]];
    if (f != m) worst = std::max(worst, rows.distance(m, f, Rows::kNoBlock));
  }
  if (worst > 0.0) {
    double e = 0.0;
    for (std::uint64_t t = 0; t < q.model.num_transitions(); ++t) {
      e = std::max(e, q.model.exit_rate(t));
    }
    q.defect = worst / e;
  }
  finish(q, cut, p, ids, watch, span);
  return q;
}

CtmcGoalQuotient goal_quotient(const Ctmc& chain, const BitVector& goal, Telemetry* telemetry) {
  std::optional<Telemetry::Span> span;
  if (telemetry != nullptr) span.emplace(telemetry->span("reduce"));
  const Stopwatch watch;
  const LiveCut cut = cut_live(chain.num_states(), goal);

  // The live states, then the sink (label 1).
  const std::size_t live_count = cut.live.size();
  const auto sink_state = static_cast<StateId>(live_count);
  ImcBuilder b;
  b.ensure_states(sink_state + 1);
  std::vector<std::uint32_t> labels(sink_state + 1, 0);
  labels[sink_state] = 1;
  for (StateId l = 0; l < live_count; ++l) {
    for (const SparseEntry& e : chain.out(cut.live[l])) {
      b.add_markov(l, e.value, goal[e.col] ? sink_state : cut.index[e.col]);
    }
  }
  const Imc imc = b.build();
  const Partition p = strong_bisimulation(imc, &labels);
  const BlockNumbering ids = number_blocks(p, live_count, sink_state);

  // Each live block takes its first member's lumped row.
  Rows rows(imc, p);
  CtmcGoalQuotient q;
  CtmcBuilder qb(ids.sink + 1);
  qb.ensure_states(ids.sink + 1);
  qb.set_initial(quotient_state(chain.initial(), cut, p, ids));
  for (StateId qs = 0; qs < ids.sink; ++qs) {
    rows.lump(ids.first_member[qs], [&](std::uint32_t to, double rate) {
      qb.add_transition(qs, rate, ids.id_of_block[to]);
    });
  }
  q.model = qb.build();

  // The defect, in jump probabilities of the chain uniformized at its
  // largest live exit rate: generator rows, so a member's own-block rate
  // counts net of its exit rate.
  double worst = 0.0;
  for (StateId l = 0; l < live_count; ++l) {
    const std::uint32_t blk = p.block_of[l];
    const StateId f = ids.first_member[ids.id_of_block[blk]];
    if (f != l) worst = std::max(worst, rows.distance(l, f, blk));
  }
  if (worst > 0.0) {
    double e = 0.0;
    for (StateId qs = 0; qs < ids.sink; ++qs) e = std::max(e, q.model.exit_rate(qs));
    q.defect = worst / e;
  }
  finish(q, cut, p, ids, watch, span);
  return q;
}

}  // namespace unicon
