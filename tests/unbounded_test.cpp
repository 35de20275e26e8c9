#include <gtest/gtest.h>

#include <cmath>

#include "ctmdp/unbounded.hpp"
#include "support/errors.hpp"

namespace unicon {
namespace {

/// 0 can go toward goal 2 (via 1) or escape to trap 3.
Ctmdp escape_model() {
  CtmdpBuilder b;
  b.ensure_states(4);
  b.set_initial(0);
  b.begin_transition(0, "toward");
  b.add_rate(1, 2.0);
  b.begin_transition(0, "escape");
  b.add_rate(3, 2.0);
  b.begin_transition(1, "go");
  b.add_rate(2, 1.0);  // half the mass reaches the goal ...
  b.add_rate(3, 1.0);  // ... half falls into the trap
  b.begin_transition(2, "stay");
  b.add_rate(2, 2.0);
  b.begin_transition(3, "stay");
  b.add_rate(3, 2.0);
  return b.build();
}

TEST(ZeroStates, MaximizeMeansNoPathToGoal) {
  const Ctmdp c = escape_model();
  const std::vector<bool> goal{false, false, true, false};
  const auto zero = zero_states(c, goal, Objective::Maximize);
  EXPECT_FALSE(zero[0]);
  EXPECT_FALSE(zero[1]);
  EXPECT_FALSE(zero[2]);
  EXPECT_TRUE(zero[3]);  // the trap has no path out
}

TEST(ZeroStates, MinimizeMeansSomeSchedulerAvoids) {
  const Ctmdp c = escape_model();
  const std::vector<bool> goal{false, false, true, false};
  const auto zero = zero_states(c, goal, Objective::Minimize);
  EXPECT_TRUE(zero[0]);   // "escape" avoids the goal forever
  EXPECT_FALSE(zero[1]);  // any transition of 1 may hit the goal
  EXPECT_FALSE(zero[2]);
  EXPECT_TRUE(zero[3]);
}

TEST(ZeroStates, AbsorbingNonGoalAvoidsTrivially) {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "go");
  b.add_rate(1, 1.0);
  const Ctmdp c = b.build();  // state 1 transitionless
  const std::vector<bool> goal{false, false};
  const auto zero = zero_states(c, goal, Objective::Minimize);
  EXPECT_TRUE(zero[1]);
}

TEST(AlmostSure, MaximizeIsProb1E) {
  const Ctmdp c = escape_model();
  const std::vector<bool> goal{false, false, true, false};
  const auto p1e = almost_sure_states(c, goal, Objective::Maximize);
  // Even the best scheduler loses half the mass to the trap at state 1.
  EXPECT_FALSE(p1e[0]);
  EXPECT_FALSE(p1e[1]);
  EXPECT_TRUE(p1e[2]);
  EXPECT_FALSE(p1e[3]);
}

TEST(AlmostSure, MinimizeIsProb1A) {
  // 0 -> goal w.p. 1/3 else retry: every scheduler (there is only one)
  // reaches the goal almost surely.
  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "try");
  b.add_rate(1, 1.0);
  b.add_rate(0, 2.0);
  b.begin_transition(1, "stay");
  b.add_rate(1, 3.0);
  const Ctmdp c = b.build();
  const auto p1a = almost_sure_states(c, {false, true}, Objective::Minimize);
  EXPECT_TRUE(p1a[0]);
  EXPECT_TRUE(p1a[1]);
}

TEST(AlmostSure, Prob1EWithRecoveryLoop) {
  // The retry loop makes the goal almost-sure reachable for the scheduler
  // that keeps trying — Prob1E holds although a single attempt can fail.
  CtmdpBuilder b;
  b.ensure_states(3);
  b.begin_transition(0, "try");
  b.add_rate(2, 1.0);
  b.add_rate(1, 1.0);
  b.begin_transition(0, "give_up");
  b.add_rate(1, 2.0);
  b.begin_transition(1, "retry");
  b.add_rate(0, 2.0);
  b.begin_transition(2, "stay");
  b.add_rate(2, 2.0);
  const Ctmdp c = b.build();
  const std::vector<bool> goal{false, false, true};
  const auto p1e = almost_sure_states(c, goal, Objective::Maximize);
  EXPECT_TRUE(p1e[0]);
  EXPECT_TRUE(p1e[1]);
  // But not for every scheduler: "give_up" + "retry" cycles forever.
  const auto p1a = almost_sure_states(c, goal, Objective::Minimize);
  EXPECT_FALSE(p1a[0]);
  EXPECT_FALSE(p1a[1]);
}

// -------------------------------------------------------- expected time

TEST(ExpectedTime, SingleExponentialStep) {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "go");
  b.add_rate(1, 4.0);
  b.begin_transition(1, "stay");
  b.add_rate(1, 4.0);
  const Ctmdp c = b.build();
  const auto r = expected_reachability_time(c, {false, true});
  EXPECT_NEAR(r.values[0], 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(r.values[1], 0.0);
}

TEST(ExpectedTime, GeometricRetryMatchesClosedForm) {
  // Per jump (rate E=3): success probability 1/3 => expected jumps 3,
  // expected time 3 / 3 = 1.
  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "try");
  b.add_rate(1, 1.0);
  b.add_rate(0, 2.0);
  b.begin_transition(1, "stay");
  b.add_rate(1, 3.0);
  const Ctmdp c = b.build();
  const auto r = expected_reachability_time(c, {false, true});
  EXPECT_NEAR(r.values[0], 1.0, 1e-8);
}

TEST(ExpectedTime, MinPrefersTheFastRoute) {
  // Choice: direct (1 jump) or detour (2 jumps); E = 2 everywhere.
  CtmdpBuilder b;
  b.ensure_states(3);
  b.begin_transition(0, "direct");
  b.add_rate(2, 2.0);
  b.begin_transition(0, "detour");
  b.add_rate(1, 2.0);
  b.begin_transition(1, "go");
  b.add_rate(2, 2.0);
  b.begin_transition(2, "stay");
  b.add_rate(2, 2.0);
  const Ctmdp c = b.build();
  const std::vector<bool> goal{false, false, true};
  UnboundedOptions min_options;
  min_options.objective = Objective::Minimize;
  EXPECT_NEAR(expected_reachability_time(c, goal, min_options).values[0], 0.5, 1e-9);
  // Max takes the detour: two mean-1/2 jumps.
  EXPECT_NEAR(expected_reachability_time(c, goal).values[0], 1.0, 1e-9);
}

TEST(ExpectedTime, InfiniteWhenAvoidancePossible) {
  const Ctmdp c = escape_model();
  const std::vector<bool> goal{false, false, true, false};
  // Max: the escape scheduler never reaches the goal -> infinite sup.
  const auto max_r = expected_reachability_time(c, goal);
  EXPECT_TRUE(std::isinf(max_r.values[0]));
  // Min: even the best scheduler loses half the mass to the trap.
  UnboundedOptions min_options;
  min_options.objective = Objective::Minimize;
  const auto min_r = expected_reachability_time(c, goal, min_options);
  EXPECT_TRUE(std::isinf(min_r.values[0]));
  EXPECT_TRUE(std::isinf(min_r.values[3]));
}

TEST(ExpectedTime, RequiresUniformModel) {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "a");
  b.add_rate(1, 1.0);
  b.begin_transition(1, "b");
  b.add_rate(0, 5.0);
  EXPECT_THROW(expected_reachability_time(b.build(), {false, true}), UniformityError);
}

// ---------------------------------------------------- degenerate inputs
//
// Table of boundary models where every objective and every horizon must
// agree on the exact answer: a goal set covering everything, a goal with
// no incoming path, and single-state systems.

/// Uniform single-action model: every state has a rate-2 self-loop.
Ctmdp self_loops(std::size_t n) {
  CtmdpBuilder b;
  b.ensure_states(n);
  for (StateId s = 0; s < n; ++s) {
    b.begin_transition(s, "stay");
    b.add_rate(s, 2.0);
  }
  return b.build();
}

struct DegenerateCase {
  const char* name;
  Ctmdp model;
  std::vector<bool> goal;
  std::vector<double> expected;  // exact value per state, any objective / t
};

std::vector<DegenerateCase> degenerate_cases() {
  std::vector<DegenerateCase> cases;
  cases.push_back({"goal_is_everything", self_loops(3), {true, true, true}, {1.0, 1.0, 1.0}});
  cases.push_back({"unreachable_goal", self_loops(2), {false, true}, {0.0, 1.0}});
  cases.push_back({"single_state_goal", self_loops(1), {true}, {1.0}});
  cases.push_back({"single_state_non_goal", self_loops(1), {false}, {0.0}});
  return cases;
}

TEST(DegenerateInputs, UnboundedTimedAndZeroStatesAgreeExactly) {
  for (const DegenerateCase& c : degenerate_cases()) {
    SCOPED_TRACE(c.name);
    for (Objective obj : {Objective::Maximize, Objective::Minimize}) {
      const auto zero = zero_states(c.model, c.goal, obj);
      TimedReachabilityOptions timed_options;
      timed_options.objective = obj;
      const auto timed = timed_reachability(c.model, c.goal, 1.0, timed_options);
      for (StateId s = 0; s < c.model.num_states(); ++s) {
        SCOPED_TRACE(s);
        EXPECT_EQ(zero[s], c.expected[s] == 0.0);
        EXPECT_DOUBLE_EQ(timed.values[s], c.expected[s]);
      }
    }
  }
}

TEST(DegenerateInputs, TransitionlessSingleState) {
  CtmdpBuilder b;
  b.ensure_states(1);
  const Ctmdp c = b.build();
  EXPECT_DOUBLE_EQ(timed_reachability(c, {true}, 1.0).values[0], 1.0);
  EXPECT_DOUBLE_EQ(timed_reachability(c, {false}, 1.0).values[0], 0.0);
  EXPECT_FALSE(zero_states(c, {true}, Objective::Maximize)[0]);
  EXPECT_TRUE(zero_states(c, {false}, Objective::Minimize)[0]);
}

TEST(DegenerateInputs, TimeZeroIsTheGoalIndicator) {
  const Ctmdp c = escape_model();
  const std::vector<bool> goal{false, false, true, false};
  const auto r = timed_reachability(c, goal, 0.0);
  EXPECT_DOUBLE_EQ(r.values[0], 0.0);
  EXPECT_DOUBLE_EQ(r.values[2], 1.0);
}

}  // namespace
}  // namespace unicon
