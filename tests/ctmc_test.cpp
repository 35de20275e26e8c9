#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"
#include "support/errors.hpp"

namespace unicon {
namespace {

/// The simplest birth-death chain: 0 --lambda--> 1 --mu--> 0.
Ctmc two_state_chain(double lambda, double mu) {
  CtmcBuilder b(2);
  b.ensure_states(2);
  b.set_initial(0);
  b.add_transition(0, lambda, 1);
  b.add_transition(1, mu, 0);
  return b.build();
}

TEST(Ctmc, BuilderBasics) {
  const Ctmc c = two_state_chain(1.0, 2.0);
  EXPECT_EQ(c.num_states(), 2u);
  EXPECT_EQ(c.num_transitions(), 2u);
  EXPECT_DOUBLE_EQ(c.exit_rate(0), 1.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(1), 2.0);
  EXPECT_DOUBLE_EQ(c.max_exit_rate(), 2.0);
}

TEST(Ctmc, RejectsNonPositiveRates) {
  CtmcBuilder b(2);
  EXPECT_THROW(b.add_transition(0, 0.0, 1), ModelError);
  EXPECT_THROW(b.add_transition(0, -1.0, 1), ModelError);
}

TEST(Ctmc, EmptyBuildThrows) {
  CtmcBuilder b;
  EXPECT_THROW(b.build(), ModelError);
}

TEST(Ctmc, ParallelTransitionsAccumulate) {
  CtmcBuilder b(2);
  b.ensure_states(2);
  b.add_transition(0, 1.0, 1);
  b.add_transition(0, 2.0, 1);
  const Ctmc c = b.build();
  EXPECT_EQ(c.num_transitions(), 1u);
  EXPECT_DOUBLE_EQ(c.exit_rate(0), 3.0);
}

TEST(Ctmc, UniformRateDetection) {
  EXPECT_FALSE(two_state_chain(1.0, 2.0).is_uniform());
  EXPECT_TRUE(two_state_chain(2.0, 2.0).is_uniform());
  EXPECT_DOUBLE_EQ(*two_state_chain(2.0, 2.0).uniform_rate(), 2.0);
}

TEST(Ctmc, NoTransitionsIsUniformAtZero) {
  CtmcBuilder b(1);
  b.ensure_states(1);
  EXPECT_DOUBLE_EQ(*b.build().uniform_rate(), 0.0);
}

TEST(Ctmc, UniformizeAddsSelfLoops) {
  const Ctmc u = two_state_chain(1.0, 2.0).uniformize();
  EXPECT_TRUE(u.is_uniform());
  EXPECT_DOUBLE_EQ(*u.uniform_rate(), 2.0);
  // State 0 gained a self-loop with the missing mass.
  double self_loop = 0.0;
  for (const SparseEntry& t : u.out(0)) {
    if (t.col == 0) self_loop = t.value;
  }
  EXPECT_DOUBLE_EQ(self_loop, 1.0);
}

TEST(Ctmc, UniformizeWithExplicitRate) {
  const Ctmc u = two_state_chain(1.0, 2.0).uniformize(5.0);
  EXPECT_DOUBLE_EQ(*u.uniform_rate(), 5.0);
}

TEST(Ctmc, UniformizeBelowMaxThrows) {
  EXPECT_THROW(two_state_chain(1.0, 2.0).uniformize(1.5), UniformityError);
}

// ---------------------------------------------------- timed reachability

TEST(TimedReachability, SingleStepMatchesExponentialCdf) {
  CtmcBuilder b(2);
  b.ensure_states(2);
  b.add_transition(0, 0.3, 1);
  const Ctmc c = b.build();
  const std::vector<bool> goal{false, true};
  for (double t : {0.5, 2.0, 10.0}) {
    const auto r = timed_reachability(c, goal, t, TransientOptions{1e-9});
    EXPECT_NEAR(r.probabilities[0], 1.0 - std::exp(-0.3 * t), 1e-7);
    EXPECT_DOUBLE_EQ(r.probabilities[1], 1.0);
  }
}

TEST(TimedReachability, GoalStatesAreSticky) {
  // Even though the chain could leave state 1, reachability counts the
  // first visit: make-absorbing semantics.
  const Ctmc c = two_state_chain(1.0, 100.0);
  const std::vector<bool> goal{false, true};
  const auto r = timed_reachability(c, goal, 50.0);
  EXPECT_NEAR(r.probabilities[0], 1.0, 1e-6);
}

TEST(TimedReachability, CtmcMonotoneInTime) {
  const Ctmc c = two_state_chain(0.2, 0.1);
  const std::vector<bool> goal{false, true};
  double prev = -1.0;
  for (double t : {0.0, 1.0, 5.0, 20.0, 100.0}) {
    const double p = timed_reachability(c, goal, t).probabilities[0];
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(TimedReachability, UnreachableGoalStaysZero) {
  CtmcBuilder b(3);
  b.ensure_states(3);
  b.add_transition(0, 1.0, 1);
  b.add_transition(1, 1.0, 0);
  b.add_transition(2, 1.0, 0);  // state 2 reaches others, but not vice versa
  const Ctmc c = b.build();
  const std::vector<bool> goal{false, false, true};
  EXPECT_DOUBLE_EQ(timed_reachability(c, goal, 100.0).probabilities[0], 0.0);
}

TEST(TimedReachability, GoalSizeMismatchThrows) {
  EXPECT_THROW(timed_reachability(two_state_chain(1.0, 1.0), {true}, 1.0), ModelError);
}

TEST(TimedReachability, NegativeTimeThrows) {
  const Ctmc c = two_state_chain(1.0, 1.0);
  EXPECT_THROW(timed_reachability(c, {false, true}, -1.0), ModelError);
  EXPECT_THROW(timed_reachability_batch(c, {false, true}, {1.0, -1.0}), ModelError);
}

TEST(TimedReachability, ErlangChainMatchesClosedForm) {
  // 3-stage Erlang with rate 2: P(absorbed by t) = 1 - e^{-2t} sum_{k<3} (2t)^k/k!.
  CtmcBuilder b(4);
  b.ensure_states(4);
  for (StateId s = 0; s < 3; ++s) b.add_transition(s, 2.0, s + 1);
  const Ctmc c = b.build();
  const std::vector<bool> goal{false, false, false, true};
  for (double t : {0.5, 1.0, 2.0, 4.0}) {
    double tail = 0.0;
    double term = 1.0;
    for (int k = 0; k < 3; ++k) {
      tail += term;
      term *= 2.0 * t / (k + 1);
    }
    const double expected = 1.0 - std::exp(-2.0 * t) * tail;
    EXPECT_NEAR(timed_reachability(c, goal, t, TransientOptions{1e-9}).probabilities[0], expected,
                1e-7)
        << t;
  }
}

TEST(TimedReachability, IterationCountEqualsPoissonRightBound) {
  const Ctmc c = two_state_chain(1.0, 2.0);
  const auto r = timed_reachability(c, {false, true}, 10.0, TransientOptions{1e-6});
  // The goal state is made absorbing first, so E = max exit of the
  // absorbing chain = 1; lambda = 10 and the right bound is lambda + O(sqrt).
  EXPECT_GT(r.iterations, 10u);
  EXPECT_LT(r.iterations, 60u);
  EXPECT_DOUBLE_EQ(r.uniform_rate, 1.0);
}

// ------------------------------------------------- parallel sweeps

/// A ring with a shortcut, enough states for several worker slices.
Ctmc ring_chain(std::size_t n) {
  CtmcBuilder b(n);
  b.ensure_states(n);
  b.set_initial(0);
  for (std::size_t s = 0; s < n; ++s) {
    b.add_transition(s, 1.0 + 0.1 * static_cast<double>(s % 3), (s + 1) % n);
    if (s % 5 == 0) b.add_transition(s, 0.5, (s + 7) % n);
  }
  return b.build();
}

TEST(TimedReachability, ParallelMatchesSerialOnCtmc) {
  const Ctmc c = ring_chain(61);
  std::vector<bool> goal(61, false);
  goal[42] = true;
  TransientOptions serial;
  serial.threads = 1;
  TransientOptions parallel;
  parallel.threads = 4;
  const auto a = timed_reachability(c, goal, 5.0, serial);
  const auto b = timed_reachability(c, goal, 5.0, parallel);
  for (std::size_t s = 0; s < a.probabilities.size(); ++s) {
    EXPECT_NEAR(a.probabilities[s], b.probabilities[s], 1e-12) << s;
  }
}

TEST(TimedReachability, GuardedRunPublishesEveryStepAndMatchesTheUnguardedRun) {
  const Ctmc c = ring_chain(31);
  std::vector<bool> goal(31, false);
  goal[12] = goal[25] = true;
  TransientOptions options;
  options.threads = 1;
  const auto clean = timed_reachability(c, goal, 2.5, options);

  RunGuard guard;
  std::vector<std::uint64_t> steps;
  guard.set_checkpoint([&](const RunCheckpoint& cp) {
    EXPECT_STREQ(cp.stage, "ctmc_timed_reachability");
    EXPECT_EQ(cp.planned, clean.iterations);
    EXPECT_EQ(cp.values.size(), c.num_states());
    steps.push_back(cp.step);
  });
  options.guard = &guard;
  const auto guarded = timed_reachability(c, goal, 2.5, options);
  EXPECT_EQ(guarded.status, RunStatus::Converged);
  EXPECT_EQ(guarded.probabilities, clean.probabilities);
  std::vector<std::uint64_t> expected(clean.iterations);
  std::iota(expected.begin(), expected.end(), 1u);
  EXPECT_EQ(steps, expected);
}

TEST(TimedReachability, PoisonedGoalEntryRaisesNumericErrorNamingTheState) {
  // Goal state 1 is read only by state 4.  The solver keeps goal entries in
  // one shared slot after its non-goal rows (compact index 4; state 4 sits
  // at compact index 3), so the error must come from the expanded result.
  CtmcBuilder b(5);
  b.add_transition(0, 1.0, 2);
  b.add_transition(2, 1.0, 0);
  b.add_transition(3, 1.0, 0);
  b.add_transition(4, 1.0, 1);
  b.add_transition(4, 0.5, 3);
  const Ctmc c = b.build();
  BitVector goal(5);
  goal.set(1);
  RunGuard guard;
  guard.set_checkpoint([](const RunCheckpoint& cp) {
    ASSERT_EQ(cp.values.size(), 5u);
    if (cp.step == 1) cp.values[1] = std::numeric_limits<double>::quiet_NaN();
  });
  TransientOptions options;
  options.guard = &guard;
  try {
    timed_reachability(c, goal, 2.0, options);
    FAIL() << "a NaN in a goal entry went unnoticed";
  } catch (const NumericError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite value at state 1 "), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace unicon
