#include "core/transform.hpp"

#include <algorithm>
#include <optional>

#include "support/errors.hpp"
#include "support/telemetry.hpp"

namespace unicon {

TransformResult transform_to_ctmdp(const Imc& m, const BitVector* goal,
                                   RunGuard* guard, Telemetry* telemetry) {
  if (goal != nullptr && goal->size() != m.num_states()) {
    throw ModelError("transform_to_ctmdp: goal vector size mismatch");
  }
  Stopwatch timer;
  std::optional<Telemetry::Span> span;
  Histogram* word_lengths = nullptr;
  if (telemetry != nullptr) {
    span.emplace(telemetry->span("transform"));
    word_lengths = &telemetry->histogram("transform.word_length");
  }

  const std::size_t n = m.num_states();
  // Step (1), urgency: a hybrid state's Markov transitions are never read,
  // so a state is Markov iff it has Markov but no interactive transitions.
  auto is_markov = [&](StateId s) { return !m.has_interactive(s) && m.has_markov(s); };
  auto original_goal = [&](StateId s) { return goal != nullptr && (*goal)[s]; };

  // --- Zero-time closure bookkeeping over the input's states --------------
  // For every interactive state v (memoized):
  //   exists_hit(v): some zero-time resolution from v hits the goal set.
  //   all_hit(v):    every zero-time resolution from v hits it.
  // A back edge during this DFS is a cycle of interactive transitions,
  // i.e. Zeno behaviour; an interactive successor without any transitions
  // is a zero-time deadlock.  Both are rejected (Sec. 4.1).
  enum class Color : std::uint8_t { White, Grey, Black };
  std::vector<Color> color(n, Color::White);
  BitVector exists_hit(n, false), all_hit(n, false);

  auto successor_hits = [&](StateId w, bool& ex, bool& all) {
    // Contribution of successor w (any kind) to its predecessor's flags.
    if (m.has_interactive(w)) {
      ex = exists_hit[w];
      all = all_hit[w];
    } else if (m.has_markov(w)) {
      ex = all = original_goal(w);
    } else {
      throw ModelError("transform_to_ctmdp: zero-time deadlock (absorbing interactive path)");
    }
  };

  struct Frame {
    StateId v;
    std::size_t edge = 0;
  };
  std::vector<Frame> stack;
  auto closure_dfs = [&](StateId root) {
    if (color[root] != Color::White) return;
    stack.assign(1, Frame{root});
    color[root] = Color::Grey;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto ts = m.out_interactive(f.v);
      if (f.edge < ts.size()) {
        const StateId w = ts[f.edge++].to;
        if (!m.has_interactive(w)) continue;  // Markov/absorbing handled at fold time
        if (color[w] == Color::Grey) {
          throw ZenoError("transform_to_ctmdp: cycle of interactive transitions (Zeno behaviour)");
        }
        if (color[w] == Color::White) {
          color[w] = Color::Grey;
          stack.push_back(Frame{w});
        }
        continue;
      }
      // Fold successors.
      bool ex = original_goal(f.v);
      bool all = ts.empty() ? original_goal(f.v) : true;
      for (const LtsTransition& t : ts) {
        bool sex = false, sall = false;
        successor_hits(t.to, sex, sall);
        ex = ex || sex;
        all = all && sall;
      }
      all = all || original_goal(f.v);
      exists_hit[f.v] = ex;
      all_hit[f.v] = all;
      color[f.v] = Color::Black;
      stack.pop_back();
    }
  };

  // --- CTMDP states: interactive input states and pair states -------------
  CtmdpBuilder builder(m.action_table(), nullptr);
  const WordId tau_word = builder.word_table()->intern_single(kTau);

  TransformResult result;
  TransformStats& stats = result.stats;

  // A CTMDP state is numbered on first use and lands on the worklist, which
  // is result.origin_of walked by index.  An entry whose origin is a Markov
  // state is the pair state of step (2): it lives in that Markov state.
  auto add_entry = [&](StateId origin, bool exists, bool all) -> StateId {
    const StateId id = builder.add_state();
    result.origin_of.push_back(origin);
    if (goal != nullptr) {
      result.goal.push_back(exists);
      result.goal_universal.push_back(all);
    }
    return id;
  };
  std::vector<StateId> state_id(n, kNoState);
  auto intern_state = [&](StateId v) -> StateId {
    if (state_id[v] == kNoState) {
      closure_dfs(v);  // also detects Zeno cycles and zero-time deadlocks
      state_id[v] = add_entry(v, exists_hit[v], all_hit[v]);
    }
    return state_id[v];
  };
  // Step (2): the pair state (M, M') that breaks a Markov->Markov edge is
  // indexed by the first input edge of its (M, M') group.  Its closure is
  // its target's goal bit.
  const MarkovTransition* const edges = m.markov_transitions().data();
  std::vector<StateId> pair_id(m.num_markov_transitions(), kNoState);
  auto intern_pair = [&](const MarkovTransition& t) -> StateId {
    StateId& id = pair_id[&t - edges];
    if (id == kNoState) id = add_entry(t.to, original_goal(t.to), original_goal(t.to));
    return id;
  };

  // Row cache: a Markov state's rate row with CTMDP targets, built the first
  // time a transition enters it and replayed for every later one.  Targets
  // are numbered in the strictly alternating IMC's edge order: non-Markov
  // targets ascending, then pair states ascending by M'.  Parallel edges
  // are summed in out_markov order.
  constexpr std::uint32_t kNoRow = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> row_of(n, kNoRow);
  std::vector<std::uint64_t> row_start{0};
  std::vector<SparseEntry> rows;
  auto emit = [&](StateId from, WordId label, StateId markov_state) {
    builder.begin_transition(from, label);
    if (row_of[markov_state] == kNoRow) {
      const auto out = m.out_markov(markov_state);
      for (const bool to_markov : {false, true}) {
        for (std::size_t i = 0; i < out.size();) {
          const MarkovTransition& t = out[i];
          double rate = t.rate;
          while (++i < out.size() && out[i].to == t.to) rate += out[i].rate;
          if (is_markov(t.to) != to_markov) continue;
          rows.push_back(SparseEntry{to_markov ? intern_pair(t) : intern_state(t.to), rate});
        }
      }
      std::sort(rows.begin() + static_cast<std::ptrdiff_t>(row_start.back()), rows.end(),
                [](const SparseEntry& a, const SparseEntry& b) { return a.col < b.col; });
      row_of[markov_state] = static_cast<std::uint32_t>(row_start.size() - 1);
      row_start.push_back(rows.size());
      ++stats.markov_states;
      stats.markov_transitions += out.size();
    }
    const std::uint32_t row = row_of[markov_state];
    for (std::uint64_t e = row_start[row]; e < row_start[row + 1]; ++e) {
      builder.add_rate(rows[e].col, rows[e].value);
    }
    ++stats.interactive_transitions;
  };

  // Entry point: the initial state, prefixed by a fresh tau word when it is
  // not interactive.
  const StateId init = m.initial();
  StateId first_entry = 0;
  if (m.has_interactive(init)) {
    builder.set_initial(intern_state(init));
  } else if (m.has_markov(init)) {
    // Fresh interactive pre-initial state with a single tau-word transition
    // whose rate function is the initial Markov state's.
    builder.set_initial(add_entry(init, original_goal(init), original_goal(init)));
    first_entry = 1;
    emit(0, tau_word, init);
  } else {
    throw ModelError("transform_to_ctmdp: initial state is absorbing");
  }

  // --- Step (3): per-entry BFS over the zero-time interactive closure ------
  // Epoch stamps mark the interactive states visited and the Markov states
  // already linked from the current entry (disjoint sets, one array).  A
  // queue item keeps its parent and action; a word is rebuilt only when a
  // transition is emitted.
  struct Step {
    StateId state;
    std::uint32_t parent;
    Action action;
  };
  std::vector<Step> queue;
  std::vector<std::uint32_t> stamp(n, 0);
  std::vector<Action> word;
  std::uint32_t epoch = 0;
  for (StateId from = first_entry; from < result.origin_of.size(); ++from) {
    if (guard != nullptr) guard->check("transform");
    const StateId entry = result.origin_of[from];
    if (is_markov(entry)) {  // a pair state: one tau step into its Markov state
      if (word_lengths != nullptr) word_lengths->observe(0);
      emit(from, tau_word, entry);
      continue;
    }
    ++epoch;
    stamp[entry] = epoch;
    queue.assign(1, Step{entry, 0, kTau});
    for (std::uint32_t head = 0; head < queue.size(); ++head) {
      for (const LtsTransition& t : m.out_interactive(queue[head].state)) {
        if (m.has_interactive(t.to)) {
          if (stamp[t.to] != epoch) {
            stamp[t.to] = epoch;
            queue.push_back(Step{t.to, head, t.action});
          }
          continue;
        }
        if (!m.has_markov(t.to)) {
          throw ModelError("transform_to_ctmdp: zero-time deadlock (absorbing interactive path)");
        }
        // Maximal interactive sequence ends: emit one CTMDP transition per
        // (entry, Markov target) pair.
        if (stamp[t.to] == epoch) {
          ++stats.words_deduplicated;
          continue;
        }
        stamp[t.to] = epoch;
        word.clear();
        if (t.action != kTau) word.push_back(t.action);
        for (std::uint32_t i = head; i != 0; i = queue[i].parent) {
          if (queue[i].action != kTau) word.push_back(queue[i].action);
        }
        std::reverse(word.begin(), word.end());
        const WordId label = word.empty() ? tau_word : builder.intern_word(word);
        if (word_lengths != nullptr) word_lengths->observe(word.size());
        emit(from, label, t.to);
      }
    }
  }

  result.ctmdp = builder.build();
  stats.interactive_states = result.ctmdp.num_states();
  // Strictly alternating storage estimate: interactive word edges
  // (source, word, target) and Markov rate edges (source, rate, target).
  stats.memory_bytes = stats.interactive_transitions * (3 * sizeof(std::uint32_t)) +
                       stats.markov_transitions * (2 * sizeof(std::uint32_t) + sizeof(double)) +
                       (stats.interactive_states + stats.markov_states) * sizeof(std::uint64_t);
  stats.seconds = timer.seconds();
  if (span) {
    // Steps (1) and (2) counted over the whole input, reachable or not.
    std::uint64_t markov_cut = 0, pair_states = 0;
    for (StateId s = 0; s < n; ++s) {
      const auto out = m.out_markov(s);
      if (m.has_interactive(s)) {
        markov_cut += out.size();
        continue;
      }
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (is_markov(out[i].to) && (i == 0 || out[i - 1].to != out[i].to)) ++pair_states;
      }
    }
    span->metric("input_states", m.num_states());
    span->metric("interactive_states", stats.interactive_states);
    span->metric("markov_states", stats.markov_states);
    span->metric("interactive_transitions", stats.interactive_transitions);
    span->metric("markov_transitions", stats.markov_transitions);
    span->metric("words_deduplicated", stats.words_deduplicated);
    span->metric("markov_transitions_cut", markov_cut);
    span->metric("pair_states_added", pair_states);
    span->metric("memory_bytes", stats.memory_bytes);
  }
  return result;
}

}  // namespace unicon
