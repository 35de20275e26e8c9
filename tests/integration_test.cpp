// End-to-end pipeline tests: composition -> uniformity by construction ->
// minimization -> transformation -> Algorithm 1, cross-checked between
// independent code paths.
#include <gtest/gtest.h>

#include <cmath>

#include "bisim/bisimulation.hpp"
#include "core/analysis.hpp"
#include "core/time_constraint.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/simulate.hpp"
#include "ctmdp/unbounded.hpp"
#include "ftwc/direct.hpp"
#include "imc/compose.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace unicon {
namespace {

/// A machine that alternates between working (mean 1/lambda) and broken
/// (mean 1/mu), built through the full compositional pipeline.
Imc machine_system(double lambda, double mu, std::shared_ptr<ActionTable> actions) {
  LtsBuilder lb(actions);
  const StateId up = lb.add_state("up");
  const StateId down = lb.add_state("down");
  lb.set_initial(up);
  lb.add_transition(up, "break", down);
  lb.add_transition(down, "fix", up);
  const Lts lts = lb.build();

  std::vector<TimeConstraint> constraints;
  constraints.emplace_back(PhaseType::exponential(lambda), "break", "fix", /*running=*/true);
  constraints.emplace_back(PhaseType::exponential(mu), "fix", "break");
  ExploreOptions explore;
  explore.record_names = true;
  explore.urgent = true;
  return apply_time_constraints(lts, constraints, explore);
}

TEST(Pipeline, MachineAvailabilityMatchesBirthDeathFormula) {
  // P(down within t) from the up state of an alternating machine equals
  // the two-state CTMC first-passage: 1 - e^{-lambda t}.
  auto actions = std::make_shared<ActionTable>();
  const double lambda = 0.1, mu = 2.0;
  const Imc system = machine_system(lambda, mu, actions);
  ASSERT_TRUE(system.is_uniform(UniformityView::Closed, 1e-9));

  std::vector<bool> goal(system.num_states());
  for (StateId s = 0; s < system.num_states(); ++s) {
    goal[s] = system.state_name(s).find("down") != std::string::npos;
  }
  for (double t : {1.0, 5.0, 20.0}) {
    const double p = analyze_timed_reachability(system, goal, t).value;
    EXPECT_NEAR(p, 1.0 - std::exp(-lambda * t), 1e-6) << t;
  }
}

TEST(Pipeline, AnalysisRejectsNonUniformInput) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(1, 5.0, 0);
  const Imc m = b.build();
  EXPECT_THROW(analyze_timed_reachability(m, {false, true}, 1.0), UniformityError);
}

TEST(Pipeline, FtwcOptimalSchedulerDominatesHeuristics) {
  // Algorithm 1's optimum must dominate stationary heuristic policies
  // (always grab the first / last failed class).
  ftwc::Parameters params;
  params.n = 2;
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);
  const Ctmdp& c = transformed.ctmdp;
  const double t = 500.0;

  const auto optimal = timed_reachability(c, transformed.goal, t);

  for (bool first : {true, false}) {
    std::vector<std::uint64_t> choice(c.num_states());
    for (StateId s = 0; s < c.num_states(); ++s) {
      const auto [lo, hi] = c.transition_range(s);
      choice[s] = lo == hi ? 0 : (first ? lo : hi - 1);
    }
    const auto fixed = evaluate_scheduler(c, transformed.goal, t, choice);
    EXPECT_LE(fixed.values[c.initial()], optimal.values[c.initial()] + 1e-9);
  }
}

TEST(Pipeline, FtwcWorstCaseMatchesSimulationOfExtractedScheduler) {
  // Extract the optimal decisions at step 1 and simulate them as a
  // stationary policy: the simulated estimate must not exceed the worst
  // case by more than Monte-Carlo noise (it is a valid scheduler).
  ftwc::Parameters params;
  params.n = 1;
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);
  const Ctmdp& c = transformed.ctmdp;
  const double t = 200.0;

  TimedReachabilityOptions options;
  options.extract_scheduler = true;
  const auto optimal = timed_reachability(c, transformed.goal, t, options);

  std::vector<std::uint64_t> choice(c.num_states());
  for (StateId s = 0; s < c.num_states(); ++s) {
    const auto [lo, hi] = c.transition_range(s);
    choice[s] = optimal.initial_decision[s] != kNoTransition ? optimal.initial_decision[s] : lo;
    if (lo == hi) choice[s] = 0;
  }
  SimulationOptions sim;
  sim.num_runs = 20000;
  const auto estimate = simulate_reachability(c, transformed.goal, t, choice, sim);
  EXPECT_LE(estimate.estimate, optimal.values[c.initial()] + estimate.half_width + 0.01);
}

TEST(Pipeline, HidingDoesNotChangeProbabilities) {
  // Closed-system analysis is invariant under hiding (urgency treats
  // visible and internal actions alike).
  Rng rng(77);
  testutil::RandomImcConfig config;
  config.num_states = 14;
  config.tau_bias = 0.3;
  const Imc m = testutil::random_uniform_imc(rng, config);
  const BitVector goal = testutil::random_goal(rng, m.num_states());
  const Imc hidden = m.hide_all();
  for (double t : {0.5, 3.0}) {
    const double a = analyze_timed_reachability(m, goal, t).value;
    const double b = analyze_timed_reachability(hidden, goal, t).value;
    EXPECT_NEAR(a, b, 1e-7);
  }
}

TEST(Pipeline, MinimizedFtwcAgreesWithFull) {
  ftwc::Parameters params;
  params.n = 2;
  const auto built = ftwc::build_direct(params);
  std::vector<std::uint32_t> labels(built.uimc.num_states());
  for (StateId s = 0; s < built.uimc.num_states(); ++s) labels[s] = built.goal[s] ? 1 : 0;
  const Imc hidden = built.uimc.hide_all();
  const Partition p = branching_bisimulation(hidden, &labels);
  const Imc q = quotient(hidden, p);
  std::vector<bool> qgoal(q.num_states(), false);
  for (StateId s = 0; s < hidden.num_states(); ++s) {
    if (built.goal[s]) qgoal[p.block_of[s]] = true;
  }
  EXPECT_LT(q.num_states(), built.uimc.num_states());

  const double t = 100.0;
  const double full = analyze_timed_reachability(built.uimc, built.goal, t).value;
  const double reduced = analyze_timed_reachability(q, qgoal, t).value;
  EXPECT_NEAR(full, reduced, 1e-6);
}

TEST(Pipeline, FtwcExpectedTimeToPremiumLoss) {
  // Worst- and best-case mean time until premium service is lost.  Both
  // are finite (components keep failing no matter what the repair unit
  // does) and the worst case is at most the best case.
  ftwc::Parameters params;
  params.n = 2;
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);

  // The expected loss time is huge (tens of thousands of hours), and
  // value iteration converges on that time scale; a capped run still
  // certifies finiteness (graph-based) and gives monotone lower bounds.
  UnboundedOptions options;
  options.max_iterations = 20000;
  const auto worst = expected_reachability_time(transformed.ctmdp, transformed.goal, options);
  options.objective = Objective::Minimize;
  const auto best = expected_reachability_time(transformed.ctmdp, transformed.goal, options);

  const StateId init = transformed.ctmdp.initial();
  ASSERT_TRUE(std::isfinite(worst.values[init]));
  ASSERT_TRUE(std::isfinite(best.values[init]));
  // Objective::Minimize minimizes the expected time (reaches the bad set
  // sooner); Maximize is the prudent repair policy that staves it off.
  EXPECT_LE(best.values[init], worst.values[init] + 1e-6);
  EXPECT_GT(best.values[init], 100.0);  // losing premium takes a while
}

TEST(Pipeline, SupIsMonotoneInGoalSet) {
  Rng rng(5);
  const Imc m = testutil::random_uniform_imc(rng);
  BitVector small = testutil::random_goal(rng, m.num_states(), 0.15);
  BitVector large = small;
  for (std::size_t s = 1; s < large.size(); s += 2) large[s] = true;
  const double t = 1.5;
  const double p_small = analyze_timed_reachability(m, small, t).value;
  const double p_large = analyze_timed_reachability(m, large, t).value;
  EXPECT_LE(p_small, p_large + 1e-9);
}

}  // namespace
}  // namespace unicon
