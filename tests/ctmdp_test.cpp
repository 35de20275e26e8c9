#include <gtest/gtest.h>

#include <vector>

#include "ctmdp/ctmdp.hpp"
#include "support/errors.hpp"

namespace unicon {
namespace {

/// Two states; state 0 has two transitions (fast/slow), state 1 loops.
Ctmdp two_choice_model() {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.set_initial(0);
  b.begin_transition(0, "fast");
  b.add_rate(1, 3.0);
  b.begin_transition(0, "slow");
  b.add_rate(0, 2.0);
  b.add_rate(1, 1.0);
  b.begin_transition(1, "loop");
  b.add_rate(1, 3.0);
  return b.build();
}

TEST(Ctmdp, BuilderBasics) {
  const Ctmdp c = two_choice_model();
  EXPECT_EQ(c.num_states(), 2u);
  EXPECT_EQ(c.num_transitions(), 3u);
  EXPECT_EQ(c.num_transitions_of(0), 2u);
  EXPECT_EQ(c.num_transitions_of(1), 1u);
  EXPECT_EQ(c.initial(), 0u);
}

TEST(Ctmdp, ExitRatesCached) {
  const Ctmdp c = two_choice_model();
  const auto [first, last] = c.transition_range(0);
  ASSERT_EQ(last - first, 2u);
  EXPECT_DOUBLE_EQ(c.exit_rate(first), 3.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(first + 1), 3.0);
}

TEST(Ctmdp, SourcesAndLabels) {
  const Ctmdp c = two_choice_model();
  EXPECT_EQ(c.source(0), 0u);
  EXPECT_EQ(c.source(2), 1u);
  EXPECT_EQ(c.words().str(c.label(0), c.actions()), "fast");
  EXPECT_EQ(c.words().str(c.label(2), c.actions()), "loop");
}

TEST(Ctmdp, DuplicateTargetsMergeWithinTransition) {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "a");
  b.add_rate(1, 1.0);
  b.add_rate(1, 2.0);
  const Ctmdp c = b.build();
  ASSERT_EQ(c.rates(0).size(), 1u);
  EXPECT_DOUBLE_EQ(c.rates(0)[0].value, 3.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(0), 3.0);
}

TEST(Ctmdp, EmptyTransitionRejected) {
  CtmdpBuilder b;
  b.ensure_states(1);
  b.begin_transition(0, "a");
  EXPECT_THROW(b.build(), ModelError);
}

TEST(Ctmdp, RateWithoutTransitionRejected) {
  CtmdpBuilder b;
  EXPECT_THROW(b.add_rate(0, 1.0), ModelError);
}

TEST(Ctmdp, NonPositiveRateRejected) {
  CtmdpBuilder b;
  b.begin_transition(0, "a");
  EXPECT_THROW(b.add_rate(1, 0.0), ModelError);
  EXPECT_THROW(b.add_rate(1, -2.0), ModelError);
}

TEST(Ctmdp, UniformRateDetection) {
  EXPECT_TRUE(two_choice_model().is_uniform());
  EXPECT_DOUBLE_EQ(*two_choice_model().uniform_rate(), 3.0);

  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "a");
  b.add_rate(1, 1.0);
  b.begin_transition(1, "a");
  b.add_rate(0, 2.0);
  EXPECT_FALSE(b.build().is_uniform());
}

TEST(Ctmdp, EmptyModelUniformAtZero) {
  CtmdpBuilder b;
  b.ensure_states(1);
  EXPECT_DOUBLE_EQ(*b.build().uniform_rate(), 0.0);
}

TEST(Ctmdp, UniformizePadsPerTransitionSelfLoops) {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.set_initial(0);
  b.begin_transition(0, "a");
  b.add_rate(1, 1.0);
  b.begin_transition(1, "b");
  b.add_rate(0, 4.0);
  const Ctmdp u = b.build().uniformize();
  EXPECT_TRUE(u.is_uniform());
  EXPECT_DOUBLE_EQ(*u.uniform_rate(), 4.0);
  // Transition 0 gained a self-loop of rate 3 at its source.
  bool found = false;
  for (const SparseEntry& e : u.rates(0)) {
    if (e.col == u.source(0)) {
      found = true;
      EXPECT_DOUBLE_EQ(e.value, 3.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Ctmdp, UniformizeBelowExitThrows) {
  EXPECT_THROW(two_choice_model().uniformize(2.0), UniformityError);
}

TEST(Ctmdp, MemoryBytesPositive) {
  EXPECT_GT(two_choice_model().memory_bytes(), 0u);
}

TEST(Ctmdp, WordLabelsSupported) {
  CtmdpBuilder b;
  b.ensure_states(2);
  const Action r = b.intern_action("r_wsL");
  const Action g = b.intern_action("g_bb");
  const std::vector<Action> word{r, g};
  b.begin_transition(0, b.intern_word(word));
  b.add_rate(1, 1.0);
  const Ctmdp c = b.build();
  EXPECT_EQ(c.words().str(c.label(0), c.actions()), "r_wsL.g_bb");
}

TEST(Ctmdp, TransitionsGroupedBySource) {
  // Insertion order interleaves sources; build() groups them, keeps their
  // order within a source, and sorts and merges every row on its own (rows
  // arrive unsorted, some with a duplicate target).
  CtmdpBuilder b;
  b.ensure_states(3);
  b.begin_transition(2, "x");
  b.add_rate(1, 1.0);
  b.add_rate(0, 2.0);
  b.add_rate(1, 0.5);
  b.begin_transition(0, "y");
  b.add_rate(1, 1.0);
  b.begin_transition(2, "z");
  b.add_rate(2, 3.0);
  b.add_rate(1, 1.0);
  b.begin_transition(0, "w");
  b.add_rate(2, 1.5);
  b.add_rate(2, 2.5);
  const Ctmdp c = b.build();
  EXPECT_EQ(c.num_transitions_of(0), 2u);
  EXPECT_EQ(c.num_transitions_of(1), 0u);
  EXPECT_EQ(c.num_transitions_of(2), 2u);
  const auto [first, last] = c.transition_range(2);
  for (std::uint64_t t = first; t < last; ++t) EXPECT_EQ(c.source(t), 2u);
  ASSERT_EQ(c.num_transitions(), 4u);
  const char* labels[] = {"y", "w", "x", "z"};
  const std::vector<std::vector<SparseEntry>> rows = {
      {{1, 1.0}}, {{2, 4.0}}, {{0, 2.0}, {1, 1.5}}, {{1, 1.0}, {2, 3.0}}};
  const double exits[] = {1.0, 4.0, 3.5, 4.0};
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    EXPECT_EQ(c.words().str(c.label(t), c.actions()), labels[t]);
    EXPECT_EQ(std::vector<SparseEntry>(c.rates(t).begin(), c.rates(t).end()), rows[t]);
    EXPECT_EQ(c.exit_rate(t), exits[t]);
  }
}

TEST(Ctmdp, BadInitialRejected) {
  CtmdpBuilder b;
  b.ensure_states(1);
  b.set_initial(5);
  EXPECT_THROW(b.build(), ModelError);
}

}  // namespace
}  // namespace unicon
