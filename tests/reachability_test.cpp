#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "testing/generate.hpp"
#include "test_util.hpp"

namespace unicon {
namespace {

/// Deterministic single-path model: 0 --rate--> 1 (goal self-loops at the
/// same rate to stay uniform).
Ctmdp single_path(double rate) {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.set_initial(0);
  b.begin_transition(0, "go");
  b.add_rate(1, rate);
  b.begin_transition(1, "stay");
  b.add_rate(1, rate);
  return b.build();
}

/// State 0 chooses between a direct route to the goal (rate mass split
/// toward goal 2) and a detour; uniform rate 4.
Ctmdp choice_model() {
  CtmdpBuilder b;
  b.ensure_states(3);
  b.set_initial(0);
  b.begin_transition(0, "good");  // hits the goal with prob 3/4 per step
  b.add_rate(2, 3.0);
  b.add_rate(1, 1.0);
  b.begin_transition(0, "bad");  // never hits the goal directly
  b.add_rate(1, 4.0);
  b.begin_transition(1, "back");
  b.add_rate(0, 4.0);
  b.begin_transition(2, "stay");
  b.add_rate(2, 4.0);
  return b.build();
}

TEST(TimedReachability, ExponentialSingleStep) {
  const Ctmdp c = single_path(0.5);
  const std::vector<bool> goal{false, true};
  for (double t : {0.5, 2.0, 8.0}) {
    const auto r = timed_reachability(c, goal, t, {.epsilon = 1e-9});
    EXPECT_NEAR(r.values[0], 1.0 - std::exp(-0.5 * t), 1e-7) << t;
    EXPECT_DOUBLE_EQ(r.values[1], 1.0);
  }
}

TEST(TimedReachability, NonUniformModelRejected) {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "a");
  b.add_rate(1, 1.0);
  b.begin_transition(1, "b");
  b.add_rate(0, 7.0);
  EXPECT_THROW(timed_reachability(b.build(), {false, true}, 1.0), UniformityError);
}

TEST(TimedReachability, InputValidation) {
  const Ctmdp c = single_path(1.0);
  EXPECT_THROW(timed_reachability(c, {true}, 1.0), ModelError);
  EXPECT_THROW(timed_reachability(c, {false, true}, -2.0), ModelError);
}

TEST(TimedReachability, MaxPicksTheBetterTransition) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  TimedReachabilityOptions options;
  options.epsilon = 1e-9;
  options.extract_scheduler = true;
  const auto max_r = timed_reachability(c, goal, 1.0, options);
  options.objective = Objective::Minimize;
  const auto min_r = timed_reachability(c, goal, 1.0, options);
  EXPECT_GT(max_r.values[0], min_r.values[0] + 0.1);
  // The min scheduler can avoid the goal entirely via "bad".
  EXPECT_NEAR(min_r.values[0], 0.0, 1e-9);
  // The max scheduler's first decision in state 0 is transition 0 ("good").
  EXPECT_EQ(max_r.initial_decision[0], 0u);
  EXPECT_EQ(min_r.initial_decision[0], 1u);
  EXPECT_EQ(max_r.initial_decision[2], kNoTransition);  // goal state
}

TEST(TimedReachability, MaxEqualsCtmcForDeterministicModels) {
  const Ctmdp c = single_path(2.0);
  const Ctmc chain = testutil::ctmc_from_deterministic_ctmdp(c);
  const std::vector<bool> goal{false, true};
  for (double t : {0.3, 1.0, 4.0}) {
    const auto mdp = timed_reachability(c, goal, t, {.epsilon = 1e-9});
    const auto ctmc = timed_reachability(chain, goal, t, TransientOptions{1e-9});
    EXPECT_NEAR(mdp.values[0], ctmc.probabilities[0], 1e-7);
  }
}

TEST(TimedReachability, GoalStatesReportOne) {
  const Ctmdp c = single_path(1.0);
  const auto r = timed_reachability(c, {true, false}, 0.5);
  EXPECT_DOUBLE_EQ(r.values[0], 1.0);
}

TEST(TimedReachability, TimeZeroOnlyGoalStatesCount) {
  const Ctmdp c = choice_model();
  const auto r = timed_reachability(c, {false, false, true}, 0.0);
  EXPECT_DOUBLE_EQ(r.values[0], 0.0);
  EXPECT_DOUBLE_EQ(r.values[2], 1.0);
  EXPECT_EQ(r.iterations_planned, 0u);
}

TEST(TimedReachability, MonotoneInTime) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  double prev = -1.0;
  for (double t : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    const double p = timed_reachability(c, goal, t).values[0];
    EXPECT_GE(p + 1e-9, prev);
    prev = p;
  }
}

TEST(TimedReachability, IterationCountsReported) {
  const Ctmdp c = single_path(2.0);
  const auto r =
      timed_reachability(c, {false, true}, 10.0, {.epsilon = 1e-6, .locking = false});
  EXPECT_EQ(r.iterations_planned, r.iterations_executed);
  EXPECT_GT(r.iterations_planned, 20u);  // lambda = 20
  EXPECT_DOUBLE_EQ(r.uniform_rate, 2.0);
  EXPECT_DOUBLE_EQ(r.lambda, 20.0);
  EXPECT_FALSE(r.exact_fixpoint);
  // With locking (the default) the same solve may break at the exact
  // fixpoint below the window: bit-identical values, fewer sweeps.
  const auto locked = timed_reachability(c, {false, true}, 10.0, {.epsilon = 1e-6});
  EXPECT_EQ(locked.iterations_planned, r.iterations_planned);
  EXPECT_LE(locked.iterations_executed, r.iterations_executed);
  EXPECT_EQ(locked.values, r.values);
}

TEST(TimedReachability, FullDecisionTableRecorded) {
  const Ctmdp c = choice_model();
  TimedReachabilityOptions options;
  options.extract_scheduler = true;
  const auto r = timed_reachability(c, {false, false, true}, 1.0, options);
  ASSERT_EQ(r.decisions.size(), r.iterations_planned);
  // Decisions at the final step equal the reported initial decision.
  EXPECT_EQ(r.decisions.front(), r.initial_decision);
}

TEST(TimedReachability, TransitionlessStateHasValueZero) {
  CtmdpBuilder b;
  b.ensure_states(3);
  b.set_initial(0);
  b.begin_transition(0, "go");
  b.add_rate(1, 1.0);
  // state 1: no transitions (absorbing, non-goal); state 2 goal.
  const Ctmdp c = b.build();
  const auto r = timed_reachability(c, {false, false, true}, 5.0);
  EXPECT_DOUBLE_EQ(r.values[1], 0.0);
  EXPECT_DOUBLE_EQ(r.values[0], 0.0);
}

// ------------------ truncation provider & locking (DESIGN.md Sec. 14)

/// Fast-absorbing drift model (uniform rate 4): every state feeds the
/// absorbing goal at rate 3 and the next state at rate 1, so the survival
/// probability contracts geometrically per uniformized jump and the
/// Lyapunov certificate fires within a few dozen below-window sweeps.
Ctmdp drift_model(std::size_t n) {
  CtmdpBuilder b;
  b.ensure_states(n);
  b.set_initial(0);
  const StateId goal = static_cast<StateId>(n - 1);
  for (StateId s = 0; s + 1 < n; ++s) {
    b.begin_transition(s, "a");
    b.add_rate(goal, 3.0);
    b.add_rate(std::min<StateId>(s + 1, goal), 1.0);
    b.begin_transition(s, "b");
    b.add_rate(goal, 2.5);
    b.add_rate(std::min<StateId>(s + 1, goal), 1.5);
  }
  return b.build();
}

BitVector last_state_goal(std::size_t n) {
  BitVector goal(n);
  goal.set(n - 1);
  return goal;
}

TEST(Truncation, LyapunovMatchesFoxGlynnWithinEpsilon) {
  const Ctmdp c = drift_model(20);
  const BitVector goal = last_state_goal(c.num_states());
  const double t = 50.0;  // lambda = 200: left > 1 but below the auto gate

  TimedReachabilityOptions exact;
  exact.epsilon = 1e-12;
  exact.truncation = Truncation::FoxGlynn;
  exact.locking = false;
  const auto reference = timed_reachability(c, goal, t, exact);

  // Locking off on both sides so the comparison isolates the provider (the
  // exact-fixpoint break would otherwise stop the Fox-Glynn run early too).
  TimedReachabilityOptions fox;
  fox.truncation = Truncation::FoxGlynn;
  fox.locking = false;
  const auto fox_run = timed_reachability(c, goal, t, fox);
  EXPECT_EQ(fox_run.truncation, Truncation::FoxGlynn);
  EXPECT_EQ(fox_run.k_lyapunov, 0u);
  EXPECT_EQ(fox_run.iterations_executed, fox_run.iterations_planned);

  TimedReachabilityOptions lyap = fox;
  lyap.truncation = Truncation::Lyapunov;
  const auto lyap_run = timed_reachability(c, goal, t, lyap);
  EXPECT_EQ(lyap_run.truncation, Truncation::Lyapunov);
  EXPECT_GT(lyap_run.k_lyapunov, 0u);
  EXPECT_LT(lyap_run.iterations_executed, fox_run.iterations_executed);

  // Both providers stay within the shared 1e-6 budget of the converged
  // answer: the certificate's forfeited tail is part of the epsilon split,
  // not an extra error term.
  for (StateId s = 0; s < c.num_states(); ++s) {
    EXPECT_NEAR(fox_run.values[s], reference.values[s], 1e-6) << s;
    EXPECT_NEAR(lyap_run.values[s], reference.values[s], 1e-6) << s;
  }
}

TEST(Truncation, AutoEngagesOnlyOnLongHorizons) {
  const Ctmdp c = drift_model(20);
  const BitVector goal = last_state_goal(c.num_states());

  // Short horizon (lambda = 8): auto resolves to Fox-Glynn and the whole
  // solve is bit-identical to an explicit Fox-Glynn request.
  TimedReachabilityOptions fox;
  fox.truncation = Truncation::FoxGlynn;
  TimedReachabilityOptions aut;
  aut.truncation = Truncation::Auto;
  const auto fox_short = timed_reachability(c, goal, 2.0, fox);
  const auto auto_short = timed_reachability(c, goal, 2.0, aut);
  EXPECT_EQ(auto_short.truncation, Truncation::FoxGlynn);
  EXPECT_EQ(auto_short.values, fox_short.values);
  EXPECT_EQ(auto_short.iterations_executed, fox_short.iterations_executed);

  // Long horizon (lambda = 1600, window left > 1024): auto engages the
  // certificate, stops early, and still agrees within the combined budget.
  const double t = 400.0;
  const auto auto_long = timed_reachability(c, goal, t, aut);
  EXPECT_EQ(auto_long.truncation, Truncation::Lyapunov);
  EXPECT_GT(auto_long.k_lyapunov, 0u);
  EXPECT_LT(auto_long.iterations_executed, auto_long.iterations_planned);
  const auto fox_long = timed_reachability(c, goal, t, fox);
  for (StateId s = 0; s < c.num_states(); ++s) {
    EXPECT_NEAR(auto_long.values[s], fox_long.values[s], 2e-6) << s;
  }
}

TEST(Truncation, CtmcCertificateMatchesFoxGlynn) {
  CtmcBuilder b(20);
  const StateId last = 19;
  for (StateId s = 0; s < last; ++s) {
    b.add_transition(s, 3.0, last);
    b.add_transition(s, 1.0, std::min<StateId>(s + 1, last));
  }
  b.set_initial(0);
  const Ctmc chain = b.build();
  const BitVector goal = last_state_goal(20);
  const double t = 50.0;  // lambda = 200

  TransientOptions fox;
  fox.truncation = Truncation::FoxGlynn;
  fox.locking = false;
  const auto fox_run = timed_reachability(chain, goal, t, fox);
  EXPECT_EQ(fox_run.truncation, Truncation::FoxGlynn);
  EXPECT_EQ(fox_run.k_lyapunov, 0u);

  TransientOptions lyap = fox;
  lyap.truncation = Truncation::Lyapunov;
  const auto lyap_run = timed_reachability(chain, goal, t, lyap);
  EXPECT_EQ(lyap_run.truncation, Truncation::Lyapunov);
  EXPECT_GT(lyap_run.k_lyapunov, 0u);
  EXPECT_LT(lyap_run.iterations_executed, fox_run.iterations_executed);
  for (StateId s = 0; s < chain.num_states(); ++s) {
    EXPECT_NEAR(lyap_run.probabilities[s], fox_run.probabilities[s], 2e-6) << s;
  }
}

TEST(Truncation, StopsBelowTheWindowKeepResidualSound) {
  // The stops below the window — the exact-fixpoint break under locking
  // and the Lyapunov certificate — must keep every value within the
  // reported residual_bound: the truncation epsilon plus, for a certified
  // stop, its forfeited tail.
  const Ctmdp c = drift_model(20);
  const BitVector goal = last_state_goal(c.num_states());
  const double t = 400.0;

  TimedReachabilityOptions exact;
  exact.epsilon = 1e-12;
  exact.truncation = Truncation::FoxGlynn;
  exact.locking = false;
  const auto reference = timed_reachability(c, goal, t, exact);

  for (const Truncation mode : {Truncation::FoxGlynn, Truncation::Auto}) {
    TimedReachabilityOptions options;
    options.truncation = mode;
    const auto run = timed_reachability(c, goal, t, options);
    ASSERT_EQ(run.status, RunStatus::Converged);
    // A stop fired, or this case would not exercise one.
    EXPECT_LT(run.iterations_executed, run.iterations_planned) << truncation_name(mode);
    // The bound reports the error actually accounted for — for an engaged
    // plan the window half plus the certified stop error, which can land
    // below the requested epsilon — but never exceeds the total budget.
    EXPECT_GT(run.residual_bound, 0.0) << truncation_name(mode);
    EXPECT_LE(run.residual_bound, options.epsilon) << truncation_name(mode);
    for (StateId s = 0; s < c.num_states(); ++s) {
      EXPECT_LE(std::fabs(run.values[s] - reference.values[s]), run.residual_bound + 1e-12)
          << truncation_name(mode) << " state " << s;
    }
  }
}

TEST(GuardedReachability, ResumeWithCertificateAndLockingIsBitIdentical) {
  // Long horizon: the auto plan engages the certificate (lambda = 1600)
  // and locking is on.  A cancel mid-sweep must leave a resumable iterate
  // that reproduces the uninterrupted run bit-for-bit — the resume replays
  // the survival series so every stop decision lands on the same step.
  const Ctmdp c = drift_model(20);
  const BitVector goal = last_state_goal(c.num_states());
  const double t = 400.0;
  const TimedReachabilityOptions options;  // auto truncation + locking
  const auto reference = timed_reachability(c, goal, t, options);
  ASSERT_EQ(reference.truncation, Truncation::Lyapunov);
  ASSERT_LT(reference.iterations_executed, reference.iterations_planned);

  for (const std::uint64_t stop_at :
       {std::uint64_t{3}, reference.iterations_executed / 2,
        reference.iterations_executed - 1}) {
    RunGuard guard;
    guard.cancel_after_polls(stop_at);
    TimedReachabilityOptions guarded = options;
    guarded.guard = &guard;
    const auto partial = timed_reachability(c, goal, t, guarded);
    ASSERT_EQ(partial.status, RunStatus::Cancelled) << stop_at;
    ASSERT_FALSE(partial.iterate.empty());

    TimedReachabilityOptions resume_options = options;
    resume_options.resume = &partial;
    const auto resumed = timed_reachability(c, goal, t, resume_options);
    ASSERT_EQ(resumed.status, RunStatus::Converged) << stop_at;
    EXPECT_EQ(resumed.values, reference.values) << stop_at;
    EXPECT_EQ(resumed.truncation, reference.truncation) << stop_at;
  }
}

TEST(GuardedReachability, CheckpointObserverKeepsLockedSweepBitIdentical) {
  // Publishing a checkpoint drops the locked set (the published iterate
  // must be a trustworthy full vector and external writes may invalidate
  // the frozen twin buffer).  A pure observer must therefore slow the
  // sweep down at most — never change the values.
  const Ctmdp c = drift_model(20);
  const BitVector goal = last_state_goal(c.num_states());
  const double t = 400.0;
  const TimedReachabilityOptions options;
  const auto reference = timed_reachability(c, goal, t, options);

  RunGuard guard;
  std::uint64_t checkpoints = 0;
  guard.set_checkpoint([&](const RunCheckpoint&) { ++checkpoints; }, /*stride=*/7);
  TimedReachabilityOptions observed = options;
  observed.guard = &guard;
  const auto run = timed_reachability(c, goal, t, observed);
  ASSERT_EQ(run.status, RunStatus::Converged);
  EXPECT_GT(checkpoints, 0u);
  EXPECT_EQ(run.values, reference.values);
  EXPECT_EQ(run.truncation, reference.truncation);
}

// ------------------------------------------------- constrained (until)

TEST(UntilReachability, AvoidBlocksIndirectRoute) {
  // 0 can reach goal 2 only through 1; forbidding 1 pins the value to 0.
  CtmdpBuilder b;
  b.ensure_states(3);
  b.set_initial(0);
  b.begin_transition(0, "step");
  b.add_rate(1, 2.0);
  b.begin_transition(1, "step");
  b.add_rate(2, 2.0);
  b.begin_transition(2, "stay");
  b.add_rate(2, 2.0);
  const Ctmdp c = b.build();
  const std::vector<bool> goal{false, false, true};

  TimedReachabilityOptions options;
  const double unconstrained = timed_reachability(c, goal, 5.0, options).values[0];
  EXPECT_GT(unconstrained, 0.5);

  options.avoid = {false, true, false};
  const auto constrained = timed_reachability(c, goal, 5.0, options);
  EXPECT_DOUBLE_EQ(constrained.values[0], 0.0);
  EXPECT_DOUBLE_EQ(constrained.values[1], 0.0);
  EXPECT_DOUBLE_EQ(constrained.values[2], 1.0);
}

TEST(UntilReachability, GoalWinsOverAvoid) {
  const Ctmdp c = single_path(1.0);
  TimedReachabilityOptions options;
  options.avoid = {false, true};
  const auto r = timed_reachability(c, {false, true}, 2.0, options);
  EXPECT_DOUBLE_EQ(r.values[1], 1.0);
  EXPECT_GT(r.values[0], 0.5);
}

TEST(UntilReachability, AvoidSteersTheOptimalScheduler) {
  // With the direct route forbidden, the max scheduler must take "bad",
  // which never reaches the goal.
  const Ctmdp c = choice_model();
  TimedReachabilityOptions options;
  options.avoid = {false, false, false};
  const std::vector<bool> goal{false, false, true};
  const double free_route = timed_reachability(c, goal, 1.0, options).values[0];
  options.avoid = {false, true, false};  // forbid the detour state 1
  const double blocked = timed_reachability(c, goal, 1.0, options).values[0];
  // Forbidding state 1 removes the recycle path; the "good" transition's
  // goal mass remains available, so the value drops but stays positive.
  EXPECT_LT(blocked, free_route);
  EXPECT_GT(blocked, 0.0);
}

TEST(UntilReachability, SizeMismatchThrows) {
  const Ctmdp c = single_path(1.0);
  TimedReachabilityOptions options;
  options.avoid = {true};
  EXPECT_THROW(timed_reachability(c, {false, true}, 1.0, options), ModelError);
}

// ------------------------------------------------- scheduler evaluation

TEST(EvaluateScheduler, MatchesInducedCtmc) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  for (std::uint64_t pick : {0u, 1u}) {
    const std::vector<std::uint64_t> choice{pick, 2, 3};
    const auto eval = evaluate_scheduler(c, goal, 2.0, choice, {.epsilon = 1e-9});
    const Ctmc induced = testutil::induced_ctmc(c, choice);
    const auto ctmc = timed_reachability(induced, goal, 2.0, TransientOptions{1e-9});
    EXPECT_NEAR(eval.values[0], ctmc.probabilities[0], 1e-7) << "pick=" << pick;
  }
}

TEST(EvaluateScheduler, BadChoiceThrows) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  EXPECT_THROW(evaluate_scheduler(c, goal, 1.0, {5, 2, 3}), ModelError);
  EXPECT_THROW(evaluate_scheduler(c, goal, 1.0, {0}), ModelError);
}

class SchedulerDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerDominance, OptimumDominatesRandomStationarySchedulers) {
  // sup over all schedulers >= any stationary scheduler >= inf.
  Rng rng(GetParam());
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  const double t = 0.7;
  const double sup = timed_reachability(c, goal, t).values[0];
  const double inf =
      timed_reachability(c, goal, t, {.objective = Objective::Minimize}).values[0];
  std::vector<std::uint64_t> choice{rng.next_below(2), 2, 3};
  const double fixed = evaluate_scheduler(c, goal, t, choice).values[0];
  EXPECT_LE(fixed, sup + 1e-9);
  EXPECT_GE(fixed, inf - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDominance, ::testing::Range<std::uint64_t>(0, 8));

TEST(TimedReachability, PrecisionScalesWithEpsilon) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  const double exact =
      timed_reachability(c, goal, 2.0, {.epsilon = 1e-12}).values[0];
  for (double eps : {1e-3, 1e-6, 1e-9}) {
    const double approx = timed_reachability(c, goal, 2.0, {.epsilon = eps}).values[0];
    EXPECT_NEAR(approx, exact, eps) << eps;
  }
}

TEST(TimedReachability, SameActionDifferentRateFunctions) {
  // The "mild variation" of Def. 1: two transitions with the SAME action
  // but different rate functions are distinct scheduler choices.
  CtmdpBuilder b;
  b.ensure_states(3);
  b.set_initial(0);
  b.begin_transition(0, "a");
  b.add_rate(2, 2.0);  // straight to the goal
  b.begin_transition(0, "a");
  b.add_rate(1, 2.0);  // away from it
  b.begin_transition(1, "a");
  b.add_rate(1, 2.0);
  b.begin_transition(2, "a");
  b.add_rate(2, 2.0);
  const Ctmdp c = b.build();
  const std::vector<bool> goal{false, false, true};
  const double best = timed_reachability(c, goal, 1.0).values[0];
  const double worst =
      timed_reachability(c, goal, 1.0, {.objective = Objective::Minimize}).values[0];
  EXPECT_GT(best, 0.5);
  EXPECT_DOUBLE_EQ(worst, 0.0);
}

TEST(EvaluateScheduler, ExtractedSchedulerRoundTrip) {
  // The optimal decision in choice_model is time-independent, so evaluating
  // the extracted initial decision as a stationary scheduler reproduces the
  // maximal value within the truncation precision.
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  TimedReachabilityOptions options;
  options.epsilon = 1e-9;
  options.extract_scheduler = true;
  for (double t : {0.4, 1.0, 3.0}) {
    const auto opt = timed_reachability(c, goal, t, options);
    const auto eval = evaluate_scheduler(c, goal, t, opt.initial_decision, options);
    for (StateId s = 0; s < c.num_states(); ++s) {
      EXPECT_NEAR(eval.values[s], opt.values[s], 1e-7) << "t=" << t << " s=" << s;
    }
  }
}

// ------------------------------------------------- edge-case models

TEST(TimedReachability, ZeroTransitionModelDoesNotCrash) {
  // A CTMDP without any transition used to derive a base pointer from
  // rates(0), one past the entry storage.  Uniform rate 0 means lambda 0.
  CtmdpBuilder b;
  b.ensure_states(3);
  b.set_initial(0);
  const Ctmdp c = b.build();
  const std::vector<bool> goal{false, true, false};

  const auto r = timed_reachability(c, goal, 5.0);
  EXPECT_DOUBLE_EQ(r.values[0], 0.0);
  EXPECT_DOUBLE_EQ(r.values[1], 1.0);
  EXPECT_EQ(r.iterations_planned, 0u);

  const auto v = step_bounded_reachability(c, goal, 7);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 1.0);

  const auto eval = evaluate_scheduler(c, goal, 5.0, {kNoTransition, kNoTransition, kNoTransition});
  EXPECT_DOUBLE_EQ(eval.values[0], 0.0);
  EXPECT_DOUBLE_EQ(eval.values[1], 1.0);
}

TEST(TimedReachability, SingleStateModelsDoNotCrash) {
  for (bool is_goal : {false, true}) {
    CtmdpBuilder b;
    b.ensure_states(1);
    b.set_initial(0);
    const Ctmdp c = b.build();
    const auto r = timed_reachability(c, {is_goal}, 2.0);
    EXPECT_DOUBLE_EQ(r.values[0], is_goal ? 1.0 : 0.0);
    EXPECT_DOUBLE_EQ(step_bounded_reachability(c, {is_goal}, 3)[0], is_goal ? 1.0 : 0.0);
  }
  // Single state with a self-loop: never reaches a (nonexistent) goal.
  CtmdpBuilder b;
  b.ensure_states(1);
  b.begin_transition(0, "loop");
  b.add_rate(0, 1.5);
  const auto r = timed_reachability(b.build(), {false}, 2.0);
  EXPECT_DOUBLE_EQ(r.values[0], 0.0);
}

// ------------------------------------------------- parallel sweeps

TEST(TimedReachability, ParallelMatchesSerial) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  for (double t : {0.5, 2.0, 20.0}) {
    TimedReachabilityOptions serial;
    serial.epsilon = 1e-9;
    serial.threads = 1;
    serial.extract_scheduler = true;
    TimedReachabilityOptions parallel = serial;
    parallel.threads = 4;
    const auto a = timed_reachability(c, goal, t, serial);
    const auto b = timed_reachability(c, goal, t, parallel);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (StateId s = 0; s < c.num_states(); ++s) {
      EXPECT_NEAR(a.values[s], b.values[s], 1e-12) << "t=" << t << " s=" << s;
    }
    EXPECT_EQ(a.initial_decision, b.initial_decision);
    EXPECT_EQ(a.iterations_executed, b.iterations_executed);
  }
}

TEST(TimedReachability, ParallelMatchesSerialAtTheExactFixpointBreak) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  TimedReachabilityOptions serial;
  serial.epsilon = 1e-7;
  serial.threads = 1;
  TimedReachabilityOptions parallel = serial;
  parallel.threads = 3;
  const auto a = timed_reachability(c, goal, 50.0, serial);
  const auto b = timed_reachability(c, goal, 50.0, parallel);
  ASSERT_TRUE(a.exact_fixpoint);
  ASSERT_LT(a.iterations_executed, a.iterations_planned);
  // The sweep delta is a max-reduction over disjoint slices, so the
  // parallel run breaks on exactly the same step with identical values.
  EXPECT_TRUE(b.exact_fixpoint);
  EXPECT_EQ(a.iterations_executed, b.iterations_executed);
  EXPECT_EQ(a.values, b.values);
}

TEST(EvaluateScheduler, ParallelMatchesSerial) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  const std::vector<std::uint64_t> choice{0, 2, 3};
  TimedReachabilityOptions serial;
  serial.threads = 1;
  TimedReachabilityOptions parallel;
  parallel.threads = 4;
  const auto a = evaluate_scheduler(c, goal, 2.0, choice, serial);
  const auto b = evaluate_scheduler(c, goal, 2.0, choice, parallel);
  for (StateId s = 0; s < c.num_states(); ++s) {
    EXPECT_NEAR(a.values[s], b.values[s], 1e-12) << s;
  }
}

TEST(StepBounded, ParallelMatchesSerial) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  const auto a = step_bounded_reachability(c, goal, 25, Objective::Maximize, 1);
  const auto b = step_bounded_reachability(c, goal, 25, Objective::Maximize, 4);
  for (StateId s = 0; s < c.num_states(); ++s) {
    EXPECT_NEAR(a[s], b[s], 1e-12) << s;
  }
}

// ------------------------------------------------- step-bounded variant

TEST(StepBounded, ZeroStepsIsGoalIndicator) {
  const Ctmdp c = choice_model();
  const auto v = step_bounded_reachability(c, {false, false, true}, 0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
}

TEST(StepBounded, OneStepIsBestSingleJumpProbability) {
  const Ctmdp c = choice_model();
  const auto v = step_bounded_reachability(c, {false, false, true}, 1);
  EXPECT_NEAR(v[0], 0.75, 1e-12);  // "good": 3 of 4 rate mass to the goal
  const auto w =
      step_bounded_reachability(c, {false, false, true}, 1, Objective::Minimize);
  EXPECT_DOUBLE_EQ(w[0], 0.0);  // "bad" avoids it
}

TEST(StepBounded, MonotoneInSteps) {
  const Ctmdp c = choice_model();
  double prev = -1.0;
  for (std::uint64_t k : {0u, 1u, 2u, 5u, 20u}) {
    const double p = step_bounded_reachability(c, {false, false, true}, k)[0];
    EXPECT_GE(p + 1e-12, prev);
    prev = p;
  }
}

TEST(StepBounded, ConvergesToUnboundedReachability) {
  const Ctmdp c = choice_model();
  const double p = step_bounded_reachability(c, {false, false, true}, 500)[0];
  EXPECT_NEAR(p, 1.0, 1e-9);  // max scheduler eventually reaches the goal
}

// --------------------------------------------------- execution control

TEST(GuardedReachability, IdleGuardIsBitIdenticalToUnguarded) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  const auto plain = timed_reachability(c, goal, 2.0, {.epsilon = 1e-9});
  RunGuard guard;
  TimedReachabilityOptions options;
  options.epsilon = 1e-9;
  options.guard = &guard;
  const auto guarded = timed_reachability(c, goal, 2.0, options);
  ASSERT_EQ(guarded.status, RunStatus::Converged);
  ASSERT_EQ(guarded.values.size(), plain.values.size());
  for (std::size_t s = 0; s < plain.values.size(); ++s) {
    EXPECT_EQ(guarded.values[s], plain.values[s]) << s;  // exact, not NEAR
  }
  EXPECT_EQ(guard.polls(), plain.iterations_planned);
}

TEST(GuardedReachability, ThreadCountsAgreeBitIdentically) {
  Rng rng(11);
  const Ctmdp c = testing::random_uniform_ctmdp(rng);
  const auto goal = testing::random_goal(rng, c.num_states());
  TimedReachabilityOptions options;
  options.epsilon = 1e-9;
  options.threads = 1;
  const auto serial = timed_reachability(c, goal, 1.5, options);
  options.threads = 4;
  const auto parallel = timed_reachability(c, goal, 1.5, options);
  for (std::size_t s = 0; s < serial.values.size(); ++s) {
    EXPECT_EQ(serial.values[s], parallel.values[s]) << s;
  }
}

TEST(GuardedReachability, CancelYieldsSoundPartialAndBitIdenticalResume) {
  Rng rng(23);
  const Ctmdp c = testing::random_uniform_ctmdp(rng);
  const auto goal = testing::random_goal(rng, c.num_states());
  const double t = 2.0;
  TimedReachabilityOptions options;
  options.epsilon = 1e-10;
  const auto reference = timed_reachability(c, goal, t, options);
  ASSERT_GT(reference.iterations_planned, 4u);

  for (const std::uint64_t stop_at :
       {std::uint64_t{1}, reference.iterations_planned / 2, reference.iterations_planned}) {
    RunGuard guard;
    guard.cancel_after_polls(stop_at);
    options.guard = &guard;
    const auto partial = timed_reachability(c, goal, t, options);
    ASSERT_EQ(partial.status, RunStatus::Cancelled) << stop_at;
    ASSERT_FALSE(partial.iterate.empty());
    EXPECT_LT(partial.iterations_executed, partial.iterations_planned);
    // Soundness: the reported values deviate from the converged answer by
    // no more than the advertised residual bound.
    for (std::size_t s = 0; s < reference.values.size(); ++s) {
      EXPECT_LE(std::fabs(partial.values[s] - reference.values[s]),
                partial.residual_bound + 1e-12)
          << "state " << s << " stop " << stop_at;
    }
    // Resume: continuing from the partial iterate reproduces the reference
    // bit-for-bit.
    TimedReachabilityOptions resume_options;
    resume_options.epsilon = options.epsilon;
    resume_options.resume = &partial;
    const auto resumed = timed_reachability(c, goal, t, resume_options);
    ASSERT_EQ(resumed.status, RunStatus::Converged);
    for (std::size_t s = 0; s < reference.values.size(); ++s) {
      EXPECT_EQ(resumed.values[s], reference.values[s]) << "state " << s << " stop " << stop_at;
    }
  }
}

TEST(GuardedReachability, ResumeValidatesTheHorizon) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  RunGuard guard;
  guard.cancel_after_polls(1);
  TimedReachabilityOptions options;
  options.guard = &guard;
  const auto partial = timed_reachability(c, goal, 2.0, options);
  ASSERT_EQ(partial.status, RunStatus::Cancelled);
  TimedReachabilityOptions resume_options;
  resume_options.resume = &partial;
  // Different t => different planned horizon: resume must refuse.
  EXPECT_THROW(timed_reachability(c, goal, 9.0, resume_options), ModelError);
  // A converged result is not resumable either.
  const auto done = timed_reachability(c, goal, 2.0);
  resume_options.resume = &done;
  EXPECT_THROW(timed_reachability(c, goal, 2.0, resume_options), ModelError);
}

TEST(GuardedReachability, CheckpointPoisonIsCaughtAsNumericError) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  // The checkpoint span is a trust boundary: a non-finite write must raise
  // NumericError no matter where in the run it lands.  Interior steps are
  // the dangerous case — the action comparisons skip NaN candidates (NaN
  // compares false both ways), so without boundary validation the poison
  // would decay into finite wrong values instead of being detected.
  for (const std::uint64_t target : {std::uint64_t{1}, std::uint64_t{0}}) {
    RunGuard guard;
    guard.set_checkpoint([target](const RunCheckpoint& cp) {
      const std::uint64_t at = target == 0 ? cp.planned : target;
      if (cp.step == at) cp.values[0] = std::numeric_limits<double>::quiet_NaN();
    });
    TimedReachabilityOptions options;
    options.guard = &guard;
    EXPECT_THROW(timed_reachability(c, goal, 2.0, options), NumericError);
  }
}

TEST(GuardedReachability, ResumePoisonIsCaughtAsNumericError) {
  const Ctmdp c = choice_model();
  const std::vector<bool> goal{false, false, true};
  RunGuard guard;
  guard.cancel_after_polls(2);
  TimedReachabilityOptions options;
  options.guard = &guard;
  TimedReachabilityResult partial = timed_reachability(c, goal, 2.0, options);
  ASSERT_EQ(partial.status, RunStatus::Cancelled);
  ASSERT_FALSE(partial.iterate.empty());
  partial.iterate[0] = std::numeric_limits<double>::infinity();
  TimedReachabilityOptions resume_options;
  resume_options.resume = &partial;
  EXPECT_THROW(timed_reachability(c, goal, 2.0, resume_options), NumericError);
}

TEST(GuardedReachability, StepBoundedThrowsBudgetErrorOnCancel) {
  const Ctmdp c = choice_model();
  RunGuard guard;
  guard.cancel_after_polls(2);
  try {
    step_bounded_reachability(c, {false, false, true}, 50, Objective::Maximize, 1, &guard);
    FAIL() << "expected BudgetError";
  } catch (const BudgetError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Cancelled);
  }
}

}  // namespace
}  // namespace unicon
