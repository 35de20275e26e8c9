#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "ctmdp/scheduler.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/run_guard.hpp"
#include "testing/generate.hpp"

namespace unicon {
namespace {

Ctmdp choice_model() {
  CtmdpBuilder b;
  b.ensure_states(3);
  b.set_initial(0);
  b.begin_transition(0, "good");
  b.add_rate(2, 3.0);
  b.add_rate(1, 1.0);
  b.begin_transition(0, "bad");
  b.add_rate(1, 4.0);
  b.begin_transition(1, "back");
  b.add_rate(0, 4.0);
  b.begin_transition(2, "stay");
  b.add_rate(2, 4.0);
  return b.build();
}

TEST(StationaryScheduler, FirstTransitionDefaults) {
  const Ctmdp c = choice_model();
  const auto s = StationaryScheduler::first_transition(c);
  EXPECT_EQ(s.choice(0), 0u);
  EXPECT_EQ(s.choice(1), 2u);
  EXPECT_NO_THROW(s.validate(c));
}

TEST(StationaryScheduler, ValidateCatchesBadChoices) {
  const Ctmdp c = choice_model();
  StationaryScheduler s({5, 2, 3});
  EXPECT_THROW(s.validate(c), ModelError);
  StationaryScheduler wrong_size({0});
  EXPECT_THROW(wrong_size.validate(c), ModelError);
}

TEST(StationaryScheduler, InducedCtmcMatchesEvaluation) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  for (std::uint64_t pick : {0u, 1u}) {
    StationaryScheduler s({pick, 2, 3});
    const Ctmc induced = s.induced_ctmc(c);
    const auto via_ctmc = timed_reachability(induced, goal, 1.5, TransientOptions{1e-9});
    const auto via_eval = evaluate_scheduler(c, goal, 1.5, s.choices(), {.epsilon = 1e-9});
    EXPECT_NEAR(via_ctmc.probabilities[0], via_eval.values[0], 1e-8) << pick;
  }
}

TEST(StationaryScheduler, FromInitialDecisionsPicksTheOptimum) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  TimedReachabilityOptions options;
  options.extract_scheduler = true;
  const auto result = timed_reachability(c, goal, 1.0, options);
  const auto s = StationaryScheduler::from_initial_decisions(c, result);
  EXPECT_EQ(s.choice(0), 0u);  // "good"
  // Goal state falls back to its first transition.
  EXPECT_EQ(s.choice(2), 3u);
}

TEST(StationaryScheduler, FromInitialDecisionsRequiresExtraction) {
  const Ctmdp c = choice_model();
  const auto result = timed_reachability(c, {false, false, true}, 1.0);
  EXPECT_THROW(StationaryScheduler::from_initial_decisions(c, result), ModelError);
}

TEST(CountdownScheduler, ReplaysDecisionTable) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  TimedReachabilityOptions options;
  options.extract_scheduler = true;
  const auto result = timed_reachability(c, goal, 1.0, options);
  ASSERT_FALSE(result.decisions.empty());
  const auto s = CountdownScheduler::from_result(result);
  EXPECT_EQ(s.num_steps(), result.iterations_planned);
  EXPECT_EQ(s.choice(1, 0), result.initial_decision[0]);
  // Steps beyond the table clamp to the last row.
  EXPECT_NO_THROW(s.choice(s.num_steps() + 100, 0));
  EXPECT_THROW(s.choice(0, 0), ModelError);
}

TEST(CountdownScheduler, RequiresDecisionTable) {
  const Ctmdp c = choice_model();
  const auto result = timed_reachability(c, {false, false, true}, 1.0);
  EXPECT_THROW(CountdownScheduler::from_result(result), ModelError);
}

// ------------------------------------------- replay as a driver run

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[s]), std::bit_cast<std::uint64_t>(b[s])) << s;
  }
}

/// A random model and the decision table its extracting solve recorded.
struct ReplayCase {
  Ctmdp model;
  BitVector goal;
  TimedReachabilityResult solve;
};

ReplayCase replay_case(std::uint64_t seed, double t) {
  Rng rng(seed);
  ReplayCase c;
  c.model = testing::random_uniform_ctmdp(rng, {.num_states = 40, .uniform_rate = 3.0});
  c.goal = testing::random_goal(rng, c.model.num_states());
  TimedReachabilityOptions options;
  options.extract_scheduler = true;
  c.solve = timed_reachability(c.model, c.goal, t, options);
  return c;
}

TEST(CountdownReplay, ThreadCountsAgreeBitwiseWithTheSolve) {
  const double t = 4.0;
  const ReplayCase c = replay_case(11, t);
  const CountdownScheduler table = CountdownScheduler::from_result(c.solve);
  TimedReachabilityOptions options;
  options.threads = 1;
  const auto one = evaluate_countdown_scheduler(c.model, c.goal, t, table, options);
  options.threads = 3;
  const auto three = evaluate_countdown_scheduler(c.model, c.goal, t, table, options);
  expect_bitwise(one.values, three.values);
  expect_bitwise(one.values, c.solve.values);
  EXPECT_EQ(one.iterations_executed, one.iterations_planned);
  EXPECT_EQ(three.iterations_executed, one.iterations_executed);
}

TEST(CountdownReplay, GuardStopYieldsASoundPartial) {
  const double t = 4.0;
  const ReplayCase c = replay_case(12, t);
  const CountdownScheduler table = CountdownScheduler::from_result(c.solve);
  const auto full = evaluate_countdown_scheduler(c.model, c.goal, t, table);
  ASSERT_GT(full.iterations_planned, 8u);
  for (const std::uint64_t polls : {1u, 3u, 7u}) {
    RunGuard guard;
    guard.cancel_after_polls(polls);
    TimedReachabilityOptions options;
    options.guard = &guard;
    const auto partial = evaluate_countdown_scheduler(c.model, c.goal, t, table, options);
    ASSERT_NE(partial.status, RunStatus::Converged) << "polls " << polls;
    EXPECT_LT(partial.iterations_executed, full.iterations_planned) << "polls " << polls;
    for (StateId s = 0; s < c.model.num_states(); ++s) {
      EXPECT_LE(std::fabs(partial.values[s] - full.values[s]), partial.residual_bound)
          << "polls " << polls << " state " << s;
    }
  }
}

TEST(CountdownReplay, GoalStatesReportOne) {
  const double t = 2.0;
  const ReplayCase c = replay_case(13, t);
  const auto replay =
      evaluate_countdown_scheduler(c.model, c.goal, t, CountdownScheduler::from_result(c.solve));
  std::size_t goals = 0;
  for (StateId s = 0; s < c.model.num_states(); ++s) {
    if (!c.goal[s]) continue;
    ++goals;
    EXPECT_EQ(replay.values[s], 1.0) << s;
  }
  EXPECT_GT(goals, 0u);
}

TEST(CountdownReplay, IncompleteTableIsRejectedBeforeSweeping) {
  // Early termination records no rows below its stop step, so the table
  // of such a solve cannot be replayed.
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  TimedReachabilityOptions options;
  options.extract_scheduler = true;
  options.early_termination = true;
  const auto solve = timed_reachability(c, goal, 50.0, options);
  ASSERT_LT(solve.iterations_executed, solve.iterations_planned);
  EXPECT_THROW(evaluate_countdown_scheduler(c, goal, 50.0, CountdownScheduler::from_result(solve)),
               ModelError);
}

}  // namespace
}  // namespace unicon
