#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "imc/imc.hpp"
#include "support/errors.hpp"

namespace unicon {
namespace {

/// A small IMC covering all four state kinds:
/// 0 hybrid (tau + rate), 1 interactive (visible), 2 Markov, 3 absorbing.
Imc all_kinds_imc() {
  ImcBuilder b;
  b.add_state("hybrid");
  b.add_state("interactive");
  b.add_state("markov");
  b.add_state("absorbing");
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_markov(0, 1.0, 2);
  b.add_interactive(1, "a", 2);
  b.add_markov(2, 2.0, 3);
  return b.build();
}

TEST(Imc, StateKinds) {
  const Imc m = all_kinds_imc();
  EXPECT_EQ(m.kind(0), StateKind::Hybrid);
  EXPECT_EQ(m.kind(1), StateKind::Interactive);
  EXPECT_EQ(m.kind(2), StateKind::Markov);
  EXPECT_EQ(m.kind(3), StateKind::Absorbing);
}

TEST(Imc, StabilityIsTauBased) {
  const Imc m = all_kinds_imc();
  EXPECT_FALSE(m.stable(0));  // has tau
  EXPECT_TRUE(m.stable(1));   // visible action only: stable per Def. 4
  EXPECT_TRUE(m.stable(2));
  EXPECT_TRUE(m.stable(3));
}

TEST(Imc, ExitAndCumulativeRates) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_markov(0, 1.0, 1);
  b.add_markov(0, 2.0, 1);  // parallel Markov transitions coexist
  b.add_markov(0, 0.5, 0);
  const Imc m = b.build();
  EXPECT_EQ(m.num_markov_transitions(), 3u);
  EXPECT_DOUBLE_EQ(m.exit_rate(0), 3.5);
  EXPECT_DOUBLE_EQ(m.rate(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.rate(0, 0), 0.5);
}

TEST(Imc, RejectsBadRatesAndIds) {
  ImcBuilder b;
  b.add_state();
  EXPECT_THROW(b.add_markov(0, 0.0, 0), ModelError);
  b.add_interactive(0, kTau, 7);
  EXPECT_THROW(b.build(), ModelError);
}

TEST(Imc, UniformityOpenView) {
  // Stable states 1 (rate 2) and 2 (rate 2): uniform.  Unstable state 0's
  // rate is unconstrained.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_markov(0, 17.0, 1);  // irrelevant: 0 is unstable
  b.add_markov(1, 2.0, 2);
  b.add_markov(2, 2.0, 1);
  const Imc m = b.build();
  EXPECT_TRUE(m.is_uniform(UniformityView::Open));
  EXPECT_DOUBLE_EQ(*m.uniform_rate(UniformityView::Open), 2.0);
}

TEST(Imc, UniformityIsRelativeToTheRate) {
  // Exit rates 1.0 and 1.0000009 differ, at any time unit.
  for (const double scale : {1.0, 1e-9, 1e9}) {
    ImcBuilder b;
    b.add_state();
    b.add_state();
    b.set_initial(0);
    b.add_markov(0, 1.0 * scale, 1);
    b.add_markov(1, 1.0000009 * scale, 0);
    const Imc m = b.build();
    EXPECT_FALSE(m.is_uniform(UniformityView::Open)) << scale;
    EXPECT_FALSE(m.is_uniform(UniformityView::Closed)) << scale;
    EXPECT_TRUE(m.uniformize().is_uniform(UniformityView::Closed)) << scale;
  }
}

TEST(Imc, UniformityClosedViewIgnoresVisibleActionStates) {
  // State 1 has a visible action -> closed view exempts it, open view
  // does not.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 2.0, 1);
  b.add_interactive(1, "a", 2);
  b.add_markov(1, 99.0, 2);  // hybrid with visible action
  b.add_markov(2, 2.0, 0);
  const Imc m = b.build();
  EXPECT_FALSE(m.is_uniform(UniformityView::Open));
  EXPECT_TRUE(m.is_uniform(UniformityView::Closed));
}

TEST(Imc, UniformityIgnoresUnreachableStates) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_state("unreachable");
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(1, 1.0, 0);
  b.add_markov(2, 123.0, 0);  // unreachable, arbitrary rate
  const Imc m = b.build();
  EXPECT_TRUE(m.is_uniform(UniformityView::Open));
  EXPECT_DOUBLE_EQ(*m.uniform_rate(UniformityView::Open), 1.0);
}

TEST(Imc, LtsEmbeddingIsUniformAtZero) {
  LtsBuilder lb;
  lb.add_state();
  lb.add_state();
  lb.add_transition(0, "a", 1);
  const Imc m = imc_from_lts(lb.build());
  EXPECT_TRUE(m.is_uniform());
  EXPECT_DOUBLE_EQ(*m.uniform_rate(), 0.0);
  EXPECT_EQ(m.num_markov_transitions(), 0u);
}

TEST(Imc, CtmcEmbeddingHasNoInteractive) {
  CtmcBuilder cb(2);
  cb.ensure_states(2);
  cb.add_transition(0, 1.5, 1);
  const Imc m = imc_from_ctmc(cb.build());
  EXPECT_EQ(m.num_interactive_transitions(), 0u);
  EXPECT_DOUBLE_EQ(m.exit_rate(0), 1.5);
}

TEST(Imc, UniformizePadsSelfLoops) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(1, 3.0, 0);
  const Imc u = b.build().uniformize(0.0, UniformityView::Closed);
  EXPECT_TRUE(u.is_uniform(UniformityView::Closed));
  EXPECT_DOUBLE_EQ(*u.uniform_rate(UniformityView::Closed), 3.0);
  EXPECT_DOUBLE_EQ(u.rate(0, 0), 2.0);
}

TEST(Imc, UniformizeBelowExitRateThrows) {
  ImcBuilder b;
  b.add_state();
  b.add_markov(0, 3.0, 0);
  EXPECT_THROW(b.build().uniformize(1.0, UniformityView::Closed), UniformityError);
}

TEST(Imc, HidePreservesMarkovTransitions) {
  const Imc m = all_kinds_imc();
  const Action a = m.actions().id("a");
  const Imc h = m.hide({a});
  EXPECT_EQ(h.num_markov_transitions(), m.num_markov_transitions());
  EXPECT_TRUE(h.has_tau(1));
}

TEST(Imc, HideAllLeavesOnlyTau) {
  const Imc h = all_kinds_imc().hide_all();
  for (const LtsTransition& t : h.interactive_transitions()) EXPECT_EQ(t.action, kTau);
}

TEST(Imc, RelabelChangesVisibleActions) {
  const Imc m = all_kinds_imc();
  const Action a = m.actions().id("a");
  ImcBuilder helper(m.action_table());
  const Action c = helper.intern("c");
  const Imc r = m.relabel({{a, c}});
  bool found = false;
  for (const LtsTransition& t : r.interactive_transitions()) {
    if (t.action == c) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Imc, ReachableDropsUnreachable) {
  ImcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_state("island");
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_markov(2, 1.0, 0);
  const Imc m = b.build().reachable();
  EXPECT_EQ(m.num_states(), 2u);
}

TEST(Imc, VisibleAlphabet) {
  const Imc m = all_kinds_imc();
  const auto alphabet = m.visible_alphabet();
  ASSERT_EQ(alphabet.size(), 1u);
  EXPECT_EQ(m.actions().name(alphabet[0]), "a");
}

TEST(Imc, RenameStates) {
  const Imc m = all_kinds_imc().rename_states({"w", "x", "y", "z"});
  EXPECT_EQ(m.state_name(2), "y");
  EXPECT_THROW(all_kinds_imc().rename_states({"too", "few"}), ModelError);
}

TEST(Imc, MemoryBytesTracksTransitions) {
  const Imc m = all_kinds_imc();
  EXPECT_GT(m.memory_bytes(), 0u);
}

TEST(Imc, DuplicateInteractiveTransitionsCollapse) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_interactive(0, "a", 1);
  b.add_interactive(0, "a", 1);
  EXPECT_EQ(b.build().num_interactive_transitions(), 1u);
}

/// A state's Markov row as (target, rate) pairs, in row order.
std::vector<std::pair<StateId, double>> markov_row(const Imc& m, StateId s) {
  std::vector<std::pair<StateId, double>> row;
  for (const MarkovTransition& t : m.out_markov(s)) row.emplace_back(t.to, t.rate);
  return row;
}

TEST(Imc, MarkovRowsSortByTargetWithTiesInInsertionOrder) {
  // State 1 has 40 Markov transitions over targets 0 and 1, all with
  // distinct rates: enough for an unstable sort of the whole relation to
  // reorder ties.  State 0's self-loops come in between, so the rows are
  // regrouped by source first.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  std::vector<std::pair<StateId, double>> to_0, to_1, row_0;
  for (int i = 0; i < 40; ++i) {
    const StateId to = i % 3 == 0 ? 1 : 0;
    b.add_markov(1, 1.0 + i, to);
    (to == 0 ? to_0 : to_1).emplace_back(to, 1.0 + i);
    if (i == 10 || i == 30) {
      b.add_markov(0, 2.0 + i, 0);
      row_0.emplace_back(0, 2.0 + i);
    }
  }
  std::vector<std::pair<StateId, double>> row_1 = to_0;
  row_1.insert(row_1.end(), to_1.begin(), to_1.end());
  const Imc m = b.build();
  EXPECT_EQ(markov_row(m, 0), row_0);
  EXPECT_EQ(markov_row(m, 1), row_1);

  // Uniformizing writes each pad after its row's self-loops, which here
  // makes it the last entry of the row.
  const Imc u = m.uniformize(1000.0, UniformityView::Closed);
  row_0.emplace_back(0, 1000.0 - 12.0 - 32.0);
  row_1.emplace_back(1, 1000.0 - 820.0);
  EXPECT_EQ(markov_row(u, 0), row_0);
  EXPECT_EQ(markov_row(u, 1), row_1);
}

}  // namespace
}  // namespace unicon
