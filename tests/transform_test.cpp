#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/transform.hpp"
#include "ctmc/transient.hpp"
#include "dft/lower.hpp"
#include "dft/sema.hpp"
#include "ftwc/direct.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace unicon {
namespace {

/// Appends the object representation of @p value.
template <class T>
void put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

// FNV-1a over everything transform_to_ctmdp returns except the wall time:
// state order, transitions with their words, rate and exit-rate bits, the
// word table, origin_of, both goal masks and the statistics.
std::uint64_t transform_digest(const TransformResult& r) {
  std::string bytes;
  const Ctmdp& c = r.ctmdp;
  put(bytes, c.num_states());
  put(bytes, c.num_transitions());
  put(bytes, c.initial());
  for (StateId s = 0; s < c.num_states(); ++s) put(bytes, c.num_transitions_of(s));
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    put(bytes, c.source(t));
    put(bytes, c.label(t));
    put(bytes, std::bit_cast<std::uint64_t>(c.exit_rate(t)));
    put(bytes, c.rates(t).size());
    for (const SparseEntry& e : c.rates(t)) {
      put(bytes, e.col);
      put(bytes, std::bit_cast<std::uint64_t>(e.value));
    }
  }
  put(bytes, c.words().size());
  for (WordId w = 0; w < c.words().size(); ++w) {
    put(bytes, c.words().actions(w).size());
    for (Action a : c.words().actions(w)) {
      put(bytes, a);
      bytes += c.actions().name(a);
    }
  }
  put(bytes, r.origin_of.size());
  for (StateId o : r.origin_of) put(bytes, o);
  for (const BitVector* mask : {&r.goal, &r.goal_universal}) {
    put(bytes, mask->size());
    for (std::size_t i = 0; i < mask->size(); ++i) {
      put(bytes, static_cast<std::uint8_t>((*mask)[i]));
    }
  }
  const TransformStats& st = r.stats;
  for (std::size_t v : {st.interactive_states, st.markov_states, st.interactive_transitions,
                        st.markov_transitions, st.memory_bytes, st.words_deduplicated}) {
    put(bytes, v);
  }
  std::uint64_t hash = 14695981039346656037ull;  // 64-bit FNV-1a
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The transform span's JSON, for its step (1) and (2) counts.
std::string transform_span_json(const Imc& m) {
  Telemetry telemetry;
  (void)transform_to_ctmdp(m, nullptr, nullptr, &telemetry);
  return telemetry.to_json();
}

/// The CTMDP state whose origin is @p origin, if exactly one exists.
StateId state_with_origin(const TransformResult& r, StateId origin) {
  StateId found = kNoState;
  for (StateId s = 0; s < r.origin_of.size(); ++s) {
    if (r.origin_of[s] != origin) continue;
    if (found != kNoState) return kNoState;
    found = s;
  }
  return found;
}

std::vector<SparseEntry> rate_row(const Ctmdp& c, std::uint64_t t) {
  return {c.rates(t).begin(), c.rates(t).end()};
}

/// Whether two Markov transitions of a non-hybrid state share a target.
bool reads_parallel_markov_edges(const Imc& m) {
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (m.has_interactive(s)) continue;
    const auto out = m.out_markov(s);
    for (std::size_t i = 1; i < out.size(); ++i) {
      if (out[i].to == out[i - 1].to) return true;
    }
  }
  return false;
}

// ------------------------------------------------------------ step (1)
// Urgency: hybrid states lose their Markov transitions.  Checked on the
// transform's output, which applies the step on the fly.

TEST(MakeAlternating, CutsMarkovTransitionsOfHybridStates) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, "a", 1);
  b.add_markov(0, 3.0, 2);  // urgency: cut
  b.add_markov(1, 1.0, 2);
  const Imc m = b.build();
  const auto result = transform_to_ctmdp(m);
  const Ctmdp& c = result.ctmdp;
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    for (const SparseEntry& e : c.rates(t)) EXPECT_NE(e.value, 3.0);
  }
  // Only state 1's Markov transition is left.
  EXPECT_EQ(result.stats.markov_states, 1u);
  EXPECT_EQ(result.stats.markov_transitions, 1u);
  // The hybrid state acts as an interactive one: its only transition is
  // the word "a" into state 1's rate function.
  ASSERT_EQ(c.num_transitions(), 1u);
  EXPECT_EQ(c.source(0), c.initial());
  EXPECT_EQ(c.words().str(c.label(0), c.actions()), "a");
  EXPECT_EQ(rate_row(c, 0), (std::vector<SparseEntry>{{state_with_origin(result, 2), 1.0}}));
  EXPECT_NE(transform_span_json(m).find("\"markov_transitions_cut\": 1,"), std::string::npos);
}

TEST(MakeAlternating, PureModelsUntouched) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 0);
  const Imc before = b.build();
  const auto result = transform_to_ctmdp(before);
  EXPECT_EQ(result.stats.markov_transitions, before.num_markov_transitions());
  EXPECT_EQ(result.stats.markov_states, 1u);
  const std::string json = transform_span_json(before);
  EXPECT_NE(json.find("\"markov_transitions_cut\": 0,"), std::string::npos);
  EXPECT_NE(json.find("\"pair_states_added\": 0,"), std::string::npos);
}

// Hybrid states' Markov transitions are never read: the transform of a
// model equals, bit for bit, that of the model without them.
TEST(MakeAlternating, HybridMarkovEdgesAreNeverRead) {
  auto without_hybrid_delays = [](const Imc& m) {
    ImcBuilder b(m.action_table());
    for (StateId s = 0; s < m.num_states(); ++s) b.add_state();
    b.set_initial(m.initial());
    for (const LtsTransition& t : m.interactive_transitions()) {
      b.add_interactive(t.from, t.action, t.to);
    }
    for (const MarkovTransition& t : m.markov_transitions()) {
      if (!m.has_interactive(t.from)) b.add_markov(t.from, t.rate, t.to);
    }
    return b.build();
  };
  ImcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, "a", 1);
  b.add_interactive(0, "b", 2);
  b.add_markov(0, 1.0, 3);  // hybrid: cut
  b.add_markov(0, 5.0, 1);  // hybrid: cut
  b.add_markov(1, 2.0, 0);
  b.add_markov(1, 1.0, 3);
  b.add_markov(2, 3.0, 2);
  b.add_interactive(3, kTau, 0);
  b.add_markov(3, 4.0, 2);  // hybrid: cut
  const Imc hybrid = b.build();
  const BitVector goal{false, true, false, true};
  const Imc cut = without_hybrid_delays(hybrid);
  EXPECT_EQ(cut.num_markov_transitions(), 3u);
  EXPECT_EQ(transform_digest(transform_to_ctmdp(hybrid, &goal)),
            transform_digest(transform_to_ctmdp(cut, &goal)));

  // Random models pad their stable interactive states with Markov
  // self-loops, so most have hybrid states.  Rebuilding a model re-sorts
  // its parallel edges, which may reorder their sums, so those are skipped.
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed + 900);
    const Imc m = testutil::random_uniform_imc(rng);
    const BitVector random_goal = testutil::random_goal(rng, m.num_states());
    const Imc m_cut = without_hybrid_delays(m);
    if (m_cut.num_markov_transitions() == m.num_markov_transitions() ||
        reads_parallel_markov_edges(m)) {
      continue;
    }
    ++compared;
    EXPECT_EQ(transform_digest(transform_to_ctmdp(m, &random_goal)),
              transform_digest(transform_to_ctmdp(m_cut, &random_goal)))
        << "seed " << seed;
  }
  EXPECT_GE(compared, 20u);
}

// ------------------------------------------------------------ step (2)
// Markov->Markov edges are broken by a pair state (s, s') entered with the
// original rate and left by tau into s'.

TEST(MakeMarkovAlternating, SplitsMarkovToMarkovEdges) {
  // 0 (Markov) --1.0--> 1 (Markov) --2.0--> 2 (interactive).
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(1, 2.0, 2);
  b.add_interactive(2, kTau, 0);
  const Imc m = b.build();
  const auto result = transform_to_ctmdp(m);
  const Ctmdp& c = result.ctmdp;
  // The fresh pre-initial state, the pair state (0,1) and state 2.
  EXPECT_EQ(c.num_states(), 3u);
  const StateId pair = state_with_origin(result, 1);
  const StateId two = state_with_origin(result, 2);
  ASSERT_NE(pair, kNoState);
  ASSERT_NE(two, kNoState);
  // State 0's rate 1.0 leads into the pair state, not into state 1.
  ASSERT_EQ(c.num_transitions_of(c.initial()), 1u);
  EXPECT_EQ(rate_row(c, c.transition_range(c.initial()).first),
            (std::vector<SparseEntry>{{pair, 1.0}}));
  // The pair state carries state 1's rate function behind a tau word.
  ASSERT_EQ(c.num_transitions_of(pair), 1u);
  const std::uint64_t t = c.transition_range(pair).first;
  EXPECT_EQ(c.words().str(c.label(t), c.actions()), "tau");
  EXPECT_EQ(rate_row(c, t), (std::vector<SparseEntry>{{two, 2.0}}));
  EXPECT_EQ(result.stats.markov_states, 2u);
  EXPECT_NE(transform_span_json(m).find("\"pair_states_added\": 1,"), std::string::npos);
}

TEST(MakeMarkovAlternating, ParallelEdgesShareOneFreshState) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(0, 2.0, 1);
  b.add_markov(1, 1.0, 0);
  const Imc m = b.build();
  const auto result = transform_to_ctmdp(m);
  const Ctmdp& c = result.ctmdp;
  // The pre-initial state and the pair states (0,1) and (1,0).
  EXPECT_EQ(c.num_states(), 3u);
  EXPECT_EQ(result.origin_of, (std::vector<StateId>{0, 1, 0}));
  EXPECT_EQ(rate_row(c, c.transition_range(c.initial()).first),
            (std::vector<SparseEntry>{{1, 3.0}}));
  EXPECT_NE(transform_span_json(m).find("\"pair_states_added\": 2,"), std::string::npos);
}

TEST(MakeMarkovAlternating, SelfLoopsAreSplitToo) {
  // A Markov self-loop is a Markov->Markov edge and gains a pair state —
  // this is how uniformization self-loops thread through the pipeline.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 0);
  const auto result = transform_to_ctmdp(b.build());
  const Ctmdp& c = result.ctmdp;
  // The pre-initial state, state 1 and the pair state (0,0).
  EXPECT_EQ(c.num_states(), 3u);
  EXPECT_EQ(result.origin_of, (std::vector<StateId>{0, 1, 0}));
  const std::vector<SparseEntry> row0{{1, 1.0}, {2, 1.0}};  // via pair state (0,0)
  EXPECT_EQ(rate_row(c, c.transition_range(0).first), row0);
  ASSERT_EQ(c.num_transitions_of(2), 1u);
  EXPECT_EQ(rate_row(c, c.transition_range(2).first), row0);
}

// --------------------------------------------- step (3) and the CTMDP

TEST(Transform, WordCompression) {
  // Markov 0 --> interactive chain 1 -a-> 2 -b-> 3 (Markov).
  ImcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 2);
  b.add_interactive(2, "b", 3);
  b.add_markov(3, 1.0, 1);
  const auto result = transform_to_ctmdp(b.build());
  const Ctmdp& c = result.ctmdp;
  // States: fresh initial (for the Markov initial state) and 1.
  EXPECT_EQ(c.num_states(), 2u);
  bool found_ab = false;
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    if (c.words().str(c.label(t), c.actions()) == "a.b") found_ab = true;
  }
  EXPECT_TRUE(found_ab);
}

TEST(Transform, TauOnlyPathsYieldTauWord) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 2.0, 1);
  b.add_interactive(1, kTau, 2);
  b.add_markov(2, 2.0, 1);
  const auto result = transform_to_ctmdp(b.build());
  const Ctmdp& c = result.ctmdp;
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    EXPECT_EQ(c.words().str(c.label(t), c.actions()), "tau");
  }
}

TEST(Transform, BranchingChoicesBecomeSeparateTransitions) {
  // An interactive state with two distinct zero-time resolutions gives the
  // CTMDP state two transitions (the scheduler's choice).
  ImcBuilder b;
  for (int i = 0; i < 5; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 2);
  b.add_interactive(1, "b", 3);
  b.add_markov(2, 1.0, 1);
  b.add_markov(3, 4.0, 4);
  b.add_interactive(4, kTau, 1);
  const auto result = transform_to_ctmdp(b.build());
  const Ctmdp& c = result.ctmdp;
  const StateId s1 = 1;  // interactive state 1 keeps its role as a CTMDP state
  bool found_two = false;
  for (StateId s = 0; s < c.num_states(); ++s) {
    if (c.num_transitions_of(s) == 2) found_two = true;
  }
  EXPECT_TRUE(found_two);
  (void)s1;
}

TEST(Transform, DuplicateWordsToSameMarkovStateAreDeduplicated) {
  // Two tau paths from the same entry to the same Markov state carry the
  // same rate function; only one transition is emitted.
  ImcBuilder b;
  for (int i = 0; i < 5; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 2);
  b.add_interactive(1, kTau, 3);
  b.add_interactive(2, kTau, 4);
  b.add_interactive(3, kTau, 4);
  b.add_markov(4, 1.0, 1);
  const auto result = transform_to_ctmdp(b.build());
  EXPECT_EQ(result.stats.words_deduplicated, 1u);
  EXPECT_EQ(result.ctmdp.num_transitions(), 2u);  // fresh-initial tau + entry
}

TEST(Transform, ZenoCycleDetected) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 2);
  b.add_interactive(2, kTau, 1);
  EXPECT_THROW(transform_to_ctmdp(b.build()), ZenoError);
}

TEST(Transform, ZeroTimeDeadlockDetected) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 2);  // state 2 is absorbing
  EXPECT_THROW(transform_to_ctmdp(b.build()), ModelError);
}

TEST(Transform, AbsorbingInitialRejected) {
  ImcBuilder b;
  b.add_state();
  EXPECT_THROW(transform_to_ctmdp(b.build()), ModelError);
}

TEST(Transform, MarkovInitialGetsFreshPreInitial) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 0);
  const auto result = transform_to_ctmdp(b.build());
  const Ctmdp& c = result.ctmdp;
  EXPECT_EQ(c.num_transitions_of(c.initial()), 1u);
  EXPECT_EQ(result.origin_of[c.initial()], 0u);
}

TEST(Transform, StatsCountStrictlyAlternatingSizes) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 2);
  b.add_markov(2, 1.0, 1);
  const auto result = transform_to_ctmdp(b.build());
  EXPECT_EQ(result.stats.interactive_states, result.ctmdp.num_states());
  EXPECT_EQ(result.stats.interactive_transitions, result.ctmdp.num_transitions());
  EXPECT_EQ(result.stats.markov_states, 2u);
  EXPECT_GT(result.stats.memory_bytes, 0u);
  EXPECT_GE(result.stats.seconds, 0.0);
}

// ----------------------------------------------------- goal transfer

TEST(Transform, GoalTransferExistentialAndUniversal) {
  // From entry 1 the scheduler may go to goal Markov state 3 or non-goal 4.
  ImcBuilder b;
  for (int i = 0; i < 5; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 3);
  b.add_interactive(1, "b", 4);
  b.add_markov(3, 1.0, 1);
  b.add_markov(4, 1.0, 1);
  const BitVector goal{false, false, false, true, false};
  const auto result = transform_to_ctmdp(b.build(), &goal);
  ASSERT_EQ(result.goal.size(), result.ctmdp.num_states());
  // Find the CTMDP state for original state 1.
  StateId one = kNoState;
  for (StateId s = 0; s < result.ctmdp.num_states(); ++s) {
    if (result.origin_of[s] == 1) one = s;
  }
  ASSERT_NE(one, kNoState);
  EXPECT_TRUE(result.goal[one]);            // can zero-reach the goal
  EXPECT_FALSE(result.goal_universal[one]);  // but is not forced to
}

TEST(Transform, GoalOnInteractiveEntryState) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 2);
  b.add_markov(2, 1.0, 1);
  const BitVector goal{false, true, false};
  const auto result = transform_to_ctmdp(b.build(), &goal);
  StateId one = kNoState;
  for (StateId s = 0; s < result.ctmdp.num_states(); ++s) {
    if (result.origin_of[s] == 1) one = s;
  }
  ASSERT_NE(one, kNoState);
  EXPECT_TRUE(result.goal[one]);
  EXPECT_TRUE(result.goal_universal[one]);
}

TEST(Transform, GoalSizeMismatchThrows) {
  ImcBuilder b;
  b.add_state();
  b.add_markov(0, 1.0, 0);
  const Imc m = b.build();
  const BitVector goal{true, false};
  EXPECT_THROW(transform_to_ctmdp(m, &goal), ModelError);
}

TEST(Transform, ParallelMarkovEdgesSumInOutMarkovOrder) {
  // Three parallel edges 0 -> 1 become one rate entry, summed in
  // out_markov order: (0.1 + 0.2) + 0.3, which differs from
  // 0.1 + (0.2 + 0.3) in the last bit.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 0.1, 1);
  b.add_markov(0, 0.2, 1);
  b.add_markov(0, 0.3, 1);
  b.add_interactive(1, kTau, 0);
  const Imc m = b.build();
  std::vector<double> order;
  for (const MarkovTransition& t : m.out_markov(0)) order.push_back(t.rate);
  ASSERT_EQ(order, (std::vector<double>{0.1, 0.2, 0.3}));
  const double sum = (0.1 + 0.2) + 0.3;
  ASSERT_NE(std::bit_cast<std::uint64_t>(sum), std::bit_cast<std::uint64_t>(0.1 + (0.2 + 0.3)));

  const auto result = transform_to_ctmdp(m);
  const Ctmdp& c = result.ctmdp;
  // The pre-initial tau transition and state 1's tau transition both carry
  // state 0's rate function.
  ASSERT_EQ(c.num_transitions(), 2u);
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    ASSERT_EQ(c.rates(t).size(), 1u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.rates(t)[0].value), std::bit_cast<std::uint64_t>(sum));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.exit_rate(t)), std::bit_cast<std::uint64_t>(sum));
  }
}

// ---------------------------------------------- golden transform outputs
// Digests of the full output on FTWC and on minimized shipped models, so
// that state numbering, word ids and rate bits cannot drift unnoticed.
// None of these inputs has parallel Markov edges.

std::string digest_hex(const TransformResult& r) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(transform_digest(r)));
  return buffer;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string minimized_digest(const lang::BuiltModel& built, const std::string& goal) {
  const lang::BuiltModel minimized = lang::minimize_model(built);
  const BitVector mask = minimized.mask(goal);
  return digest_hex(transform_to_ctmdp(minimized.system, &mask));
}

TEST(TransformGolden, FtwcDirect) {
  const std::pair<unsigned, const char*> pins[] = {{4, "ac63c46f59c31ded"},
                                                   {8, "d9cff5cf3962e11d"}};
  for (const auto& [n, digest] : pins) {
    ftwc::Parameters params;
    params.n = n;
    const ftwc::DirectResult built = ftwc::build_direct(params);
    EXPECT_EQ(digest_hex(transform_to_ctmdp(built.uimc, &built.goal)), digest) << "N=" << n;
  }
}

TEST(TransformGolden, MinimizedUniModels) {
  const std::pair<const char*, const char*> pins[] = {
      {"quickstart.uni", "70209dbfbc70b81a"},
      {"erlang_job_shop.uni", "c1d071f91852efa1"},
      {"ftwc.uni", "6d453e0710072415"}};
  for (const auto& [file, digest] : pins) {
    const std::string path = std::string(UNICON_MODELS_DIR) + "/" + file;
    const lang::BuiltModel built = lang::build_model(lang::parse_and_check(read_text(path), path));
    EXPECT_EQ(minimized_digest(built, "goal"), digest) << file;
  }
}

TEST(TransformGolden, MinimizedDftModels) {
  const std::pair<const char*, const char*> pins[] = {{"cas.dft", "49e45d5d7f5fb4ff"},
                                                      {"fdep_pand.dft", "1f068950b88e9952"}};
  for (const auto& [file, digest] : pins) {
    const std::string path = std::string(UNICON_DFT_DIR) + "/" + file;
    const lang::BuiltModel built = dft::lower_dft(dft::parse_and_check_dft(read_text(path), path));
    EXPECT_EQ(minimized_digest(built, "failed"), digest) << file;
  }
}

// --------------------------- Theorem 1 style cross-checks (properties)

class TransformCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransformCrossCheck, DeterministicUimcMatchesCtmcAnalysis) {
  // For a closed uIMC without any scheduler choice, the transformed CTMDP
  // is deterministic and timed reachability must equal plain CTMC
  // analysis of the induced chain (Theorem 1 collapses to an equality).
  Rng rng(GetParam());
  testutil::RandomImcConfig config;
  config.num_states = 15;
  config.deterministic = true;
  config.uniform_rate = 2.0;
  const Imc m = testutil::random_uniform_imc(rng, config);
  const BitVector goal = testutil::random_goal(rng, m.num_states());

  const auto transformed = transform_to_ctmdp(m, &goal);
  const Ctmc chain = testutil::ctmc_from_deterministic_ctmdp(transformed.ctmdp);

  for (double t : {0.4, 1.5, 6.0}) {
    TimedReachabilityOptions options;
    options.epsilon = 1e-9;
    const auto via_mdp = timed_reachability(transformed.ctmdp, transformed.goal, t, options);
    const auto via_ctmc = timed_reachability(chain, transformed.goal, t, TransientOptions{1e-9});
    EXPECT_NEAR(via_mdp.values[transformed.ctmdp.initial()],
                via_ctmc.probabilities[chain.initial()], 1e-6)
        << "t=" << t;
  }
}

TEST_P(TransformCrossCheck, SupIsAtLeastInf) {
  Rng rng(GetParam() + 300);
  testutil::RandomImcConfig config;
  config.num_states = 14;
  const Imc m = testutil::random_uniform_imc(rng, config);
  const BitVector goal = testutil::random_goal(rng, m.num_states());
  UimcAnalysisOptions options;
  const double sup = analyze_timed_reachability(m, goal, 2.0, options).value;
  options.reachability.objective = Objective::Minimize;
  const double inf = analyze_timed_reachability(m, goal, 2.0, options).value;
  EXPECT_GE(sup + 1e-9, inf);
}

TEST_P(TransformCrossCheck, TransformedModelIsUniform) {
  Rng rng(GetParam() + 600);
  const Imc m = testutil::random_uniform_imc(rng);
  const auto result = transform_to_ctmdp(m);
  EXPECT_TRUE(result.ctmdp.is_uniform(1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformCrossCheck, ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace unicon
