// Goal quotients: the one-level refinement against the IMC route it
// replaced, and the analysis glue that solves the quotient of its
// transformed CTMDP (batch and single, lifted values, the k * d bound, the
// unreduced scheduler path, the option refusal and the run guard).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bisim/bisimulation.hpp"
#include "core/analysis.hpp"
#include "core/goal_quotient.hpp"
#include "ftwc/direct.hpp"
#include "imc/imc.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "testing/generate.hpp"

namespace unicon {
namespace {

constexpr StateId kNone = static_cast<StateId>(-1);

/// @p blocks renumbered in order of first occurrence, so that two
/// vectors are equal iff they describe the same relation.
std::vector<std::uint32_t> canonical(const std::vector<std::uint32_t>& blocks) {
  std::vector<std::uint32_t> out(blocks.size());
  std::vector<std::uint32_t> id;
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    if (blocks[s] >= id.size()) id.resize(blocks[s] + 1, kNone);
    if (id[blocks[s]] == kNone) id[blocks[s]] = static_cast<std::uint32_t>(s);
    out[s] = id[blocks[s]];
  }
  return out;
}

/// The live part's IMC, the way goal quotients were lumped before the
/// one-level refinement: the live states, then @p markov_states, then the
/// sink; labels 0 live, 1 Markov, 2 sink.
struct ReferenceImc {
  ImcBuilder builder;
  std::vector<StateId> index;  // per input state: live index, or kNone
  std::vector<std::uint32_t> labels;
  StateId sink = 0;

  ReferenceImc(const BitVector& goal, std::size_t markov_states) : index(goal.size(), kNone) {
    StateId live = 0;
    for (StateId s = 0; s < goal.size(); ++s) {
      if (!goal[s]) index[s] = live++;
    }
    sink = static_cast<StateId>(live + markov_states);
    builder.ensure_states(sink + 1);
    labels.assign(sink + 1, 1);
    std::fill(labels.begin(), labels.begin() + live, 0);
    labels[sink] = 2;
  }
  StateId target(StateId s) const { return index[s] == kNone ? sink : index[s]; }

  /// Per input state: its block under strong_bisimulation of the IMC.
  std::vector<std::uint32_t> blocks() {
    const Partition p = strong_bisimulation(builder.build(), &labels);
    std::vector<std::uint32_t> out(index.size());
    for (StateId s = 0; s < index.size(); ++s) out[s] = p.block_of[target(s)];
    return canonical(out);
  }
};

/// The strictly alternating IMC's relation: one Markov state per live
/// transition, every transition under one visible action.
std::vector<std::uint32_t> alternating_imc_blocks(const Ctmdp& model, const BitVector& goal) {
  std::size_t live_transitions = 0;
  for (StateId s = 0; s < model.num_states(); ++s) {
    if (!goal[s]) live_transitions += model.num_transitions_of(s);
  }
  ReferenceImc ref(goal, live_transitions);
  const Action act = ref.builder.intern("a");
  StateId markov = static_cast<StateId>(ref.sink - live_transitions);
  for (StateId s = 0; s < model.num_states(); ++s) {
    if (goal[s]) continue;
    const auto [first, last] = model.transition_range(s);
    for (std::uint64_t t = first; t < last; ++t, ++markov) {
      ref.builder.add_interactive(ref.index[s], act, markov);
      for (const SparseEntry& e : model.rates(t)) {
        ref.builder.add_markov(markov, e.value, ref.target(e.col));
      }
    }
  }
  return ref.blocks();
}

/// The Markov-only IMC's relation: the live states and the sink.
std::vector<std::uint32_t> markov_imc_blocks(const Ctmc& chain, const BitVector& goal) {
  ReferenceImc ref(goal, 0);
  for (StateId s = 0; s < chain.num_states(); ++s) {
    if (goal[s]) continue;
    for (const SparseEntry& e : chain.out(s)) {
      ref.builder.add_markov(ref.index[s], e.value, ref.target(e.col));
    }
  }
  return ref.blocks();
}

template <class Quotient>
std::vector<std::uint32_t> quotient_blocks(const Quotient& q) {
  return canonical(std::vector<std::uint32_t>(q.state_of.begin(), q.state_of.end()));
}

TEST(GoalQuotientRefinement, MatchesTheAlternatingImcOnRandomCtmdps) {
  std::size_t lumped = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    testing::RandomCtmdpConfig config;
    config.num_states = 5 + seed % 40;
    config.max_entries = 1 + seed % 4;
    if (seed % 3 == 0) config.rate_spread = 1.0;  // equal rates, so blocks merge
    const Ctmdp model = testing::random_uniform_ctmdp(rng, config);
    const BitVector goal = testing::random_goal(rng, model.num_states(), 0.1 + (seed % 5) * 0.1);
    const CtmdpGoalQuotient q = goal_quotient(model, goal);
    ASSERT_EQ(quotient_blocks(q), alternating_imc_blocks(model, goal)) << "seed " << seed;
    lumped += q.stats.blocks_out < q.stats.live_states + 1;
  }
  EXPECT_GT(lumped, 50u);  // the corpus exercises real merges
}

TEST(GoalQuotientRefinement, MatchesTheMarkovImcOnRandomCtmcs) {
  std::size_t lumped = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    testing::RandomCtmcConfig config;
    config.num_states = 5 + seed % 40;
    if (seed % 2 == 0) config.min_rate = config.max_rate = 1.0;
    const Ctmc chain = testing::random_ctmc(rng, config);
    const BitVector goal = testing::random_goal(rng, chain.num_states(), 0.2);
    const CtmcGoalQuotient q = goal_quotient(chain, goal);
    ASSERT_EQ(quotient_blocks(q), markov_imc_blocks(chain, goal)) << "seed " << seed;
    lumped += q.stats.blocks_out < q.stats.live_states + 1;
  }
  EXPECT_GT(lumped, 50u);
}

TEST(GoalQuotientRefinement, MatchesTheAlternatingImcOnFtwc) {
  // Quotient sizes: N=4 as perfbench's long-horizon workload solves it,
  // N=8 as the server's hot set serves it.
  for (const auto& [n, states, blocks] :
       {std::tuple{4u, 3001u, 58u}, std::tuple{8u, 10713u, 132u}}) {
    ftwc::Parameters params;
    params.n = n;
    const ftwc::DirectResult direct = ftwc::build_direct(params);
    const TransformResult transformed = transform_to_ctmdp(direct.uimc, &direct.goal);
    ASSERT_EQ(transformed.ctmdp.num_states(), states);
    for (const BitVector* goal : {&transformed.goal, &transformed.goal_universal}) {
      const CtmdpGoalQuotient q = goal_quotient(transformed.ctmdp, *goal);
      EXPECT_EQ(q.model.num_states(), blocks) << "N=" << n;
      EXPECT_EQ(quotient_blocks(q), alternating_imc_blocks(transformed.ctmdp, *goal))
          << "N=" << n;
      EXPECT_TRUE(q.model.is_uniform());
    }
  }
}

TEST(GoalQuotientGuard, ACancelInsideTheLumpingThrowsBudgetError) {
  ftwc::Parameters params;
  params.n = 4;
  const ftwc::DirectResult direct = ftwc::build_direct(params);
  const TransformResult transformed = transform_to_ctmdp(direct.uimc, &direct.goal);

  // Directly: an idle guard counts one poll per refinement round.
  RunGuard idle;
  const CtmdpGoalQuotient q = goal_quotient(transformed.ctmdp, transformed.goal, &idle);
  EXPECT_EQ(idle.polls(), q.stats.rounds);
  ASSERT_GT(q.stats.rounds, 1u);
  RunGuard direct_guard;
  direct_guard.cancel_after_polls(q.stats.rounds);
  try {
    (void)goal_quotient(transformed.ctmdp, transformed.goal, &direct_guard);
    FAIL() << "the cancel did not stop the lumping";
  } catch (const BudgetError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Cancelled);
  }

  // Through the glue: the poll after the transformation's last lands in
  // the lumping's first round.
  RunGuard transform_polls;
  (void)transform_to_ctmdp(direct.uimc, &direct.goal, &transform_polls);
  RunGuard guard;
  guard.cancel_after_polls(transform_polls.polls() + 1);
  UimcAnalysisOptions options;
  options.reachability.threads = 1;
  options.reachability.guard = &guard;
  try {
    (void)analyze_timed_reachability(direct.uimc, direct.goal, 100.0, options);
    FAIL() << "the cancel did not stop the analysis";
  } catch (const BudgetError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Cancelled);
    EXPECT_NE(std::string(e.what()).find("strong_bisimulation"), std::string::npos) << e.what();
  }
}

// --------------------------------------------------------- analysis glue

/// Checks the glue's batch and single analyses of one model against each
/// other and against unreduced solves of the transformed CTMDP.
void check_batch_against_single_and_unreduced(const Imc& m, const BitVector& goal,
                                              const std::vector<double>& times,
                                              Objective objective) {
  UimcAnalysisOptions options;
  options.reachability.threads = 1;
  options.reachability.objective = objective;
  const UimcBatchAnalysisResult batch =
      analyze_timed_reachability_batch(m, goal, times, options);
  const Ctmdp& ctmdp = batch.transformed.ctmdp;
  const BitVector& ctmdp_goal =
      objective == Objective::Maximize ? batch.transformed.goal : batch.transformed.goal_universal;
  const CtmdpGoalQuotient q = goal_quotient(ctmdp, ctmdp_goal);
  EXPECT_EQ(batch.reduction.defect, q.defect);
  ASSERT_GT(batch.reduction.stats.blocks_out, 0u);
  EXPECT_LT(batch.reduction.stats.blocks_out, ctmdp.num_states());
  EXPECT_EQ(batch.reduction.stats.states_in, ctmdp.num_states());
  ASSERT_EQ(batch.reachability.size(), times.size());
  for (std::size_t j = 0; j < times.size(); ++j) {
    const TimedReachabilityResult& r = batch.reachability[j];
    ASSERT_EQ(r.values.size(), ctmdp.num_states());
    EXPECT_EQ(batch.values[j], r.values[ctmdp.initial()]);

    // Batch == single, bitwise.
    const UimcAnalysisResult single = analyze_timed_reachability(m, goal, times[j], options);
    EXPECT_EQ(std::memcmp(single.reachability.values.data(), r.values.data(),
                          r.values.size() * sizeof(double)),
              0)
        << "t=" << times[j];
    EXPECT_EQ(std::memcmp(&single.value, &batch.values[j], sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&single.reachability.residual_bound, &r.residual_bound, sizeof(double)),
              0);
    EXPECT_EQ(single.reachability.iterations_planned, r.iterations_planned);
    EXPECT_EQ(single.reachability.iterations_executed, r.iterations_executed);
    EXPECT_EQ(single.reduction.defect, batch.reduction.defect);

    // The quotient's own solve, lifted, with k * d in its bound.
    const TimedReachabilityResult reduced =
        timed_reachability(q.model, q.goal, times[j], options.reachability);
    for (StateId s = 0; s < ctmdp.num_states(); ++s) {
      ASSERT_EQ(std::memcmp(&r.values[s], &reduced.values[q.state_of[s]], sizeof(double)), 0);
    }
    EXPECT_EQ(r.residual_bound, quotient_residual_bound(reduced.residual_bound,
                                                        reduced.iterations_planned, q.defect));

    // Every lifted value within its bound of the unreduced solve.
    const TimedReachabilityResult full =
        timed_reachability(ctmdp, ctmdp_goal, times[j], options.reachability);
    double worst = 0.0;
    for (StateId s = 0; s < ctmdp.num_states(); ++s) {
      worst = std::max(worst, std::fabs(r.values[s] - full.values[s]));
    }
    EXPECT_LE(worst, r.residual_bound) << "t=" << times[j];
  }
}

TEST(AnalysisBatch, FtwcSolvesTheGoalQuotientOfTheUnreducedTransform) {
  ftwc::Parameters params;
  params.n = 4;
  const ftwc::DirectResult direct = ftwc::build_direct(params);
  const std::vector<double> times = {50.0, 500.0, 1500.0};
  check_batch_against_single_and_unreduced(direct.uimc, direct.goal, times, Objective::Maximize);

  UimcAnalysisOptions options;
  options.reachability.threads = 1;
  const UimcAnalysisResult r =
      analyze_timed_reachability(direct.uimc, direct.goal, 1500.0, options);
  // The transform stays unreduced: the counts perfbench pins.
  EXPECT_EQ(r.transformed.ctmdp.num_states(), 3001u);
  EXPECT_EQ(r.transformed.ctmdp.num_transitions(), 4142u);
  EXPECT_EQ(r.reduction.stats.blocks_out, 58u);
  EXPECT_EQ(r.reduction.stats.live_states, 387u);
}

TEST(AnalysisBatch, FtwcUniSolvesTheGoalQuotientOfTheUnreducedTransform) {
  std::ifstream in(std::string(UNICON_MODELS_DIR) + "/ftwc.uni");
  ASSERT_TRUE(in.good());
  std::ostringstream source;
  source << in.rdbuf();
  const lang::BuiltModel built =
      lang::minimize_model(lang::build_model(lang::parse_and_check(source.str(), "ftwc.uni")));
  for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
    check_batch_against_single_and_unreduced(built.system, built.mask("goal"), {1.0, 100.0, 1500.0},
                                             objective);
  }
}

TEST(AnalysisBatch, ThreadsAndLockingLeaveTheLiftedValuesBitwise) {
  ftwc::Parameters params;
  params.n = 4;
  const ftwc::DirectResult direct = ftwc::build_direct(params);
  UimcAnalysisOptions options;
  options.reachability.threads = 1;
  const UimcBatchAnalysisResult reference =
      analyze_timed_reachability_batch(direct.uimc, direct.goal, {100.0, 500.0}, options);
  for (const auto& [threads, locking] : {std::pair{3u, true}, std::pair{1u, false}}) {
    options.reachability.threads = threads;
    options.reachability.locking = locking;
    const UimcBatchAnalysisResult other =
        analyze_timed_reachability_batch(direct.uimc, direct.goal, {100.0, 500.0}, options);
    for (std::size_t j = 0; j < 2; ++j) {
      const std::vector<double>& a = reference.reachability[j].values;
      const std::vector<double>& b = other.reachability[j].values;
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
          << "threads=" << threads << " locking=" << locking;
    }
  }
}

TEST(AnalysisBatch, SchedulerExtractionSolvesTheUnreducedCtmdp) {
  ftwc::Parameters params;
  params.n = 4;
  const ftwc::DirectResult direct = ftwc::build_direct(params);
  UimcAnalysisOptions options;
  options.reachability.threads = 1;
  options.reachability.extract_scheduler = true;
  const double t = 20.0;
  const UimcAnalysisResult r = analyze_timed_reachability(direct.uimc, direct.goal, t, options);
  EXPECT_EQ(r.reduction.stats.blocks_out, 0u);
  const TimedReachabilityResult full =
      timed_reachability(r.transformed.ctmdp, r.transformed.goal, t, options.reachability);
  ASSERT_EQ(r.reachability.values.size(), full.values.size());
  EXPECT_EQ(std::memcmp(r.reachability.values.data(), full.values.data(),
                        full.values.size() * sizeof(double)),
            0);
  EXPECT_EQ(r.reachability.residual_bound, full.residual_bound);
  EXPECT_EQ(r.reachability.initial_decision, full.initial_decision);
  ASSERT_FALSE(full.decisions.empty());
  EXPECT_EQ(r.reachability.decisions, full.decisions);
}

TEST(AnalysisBatch, RefusesOptionsThatIndexTheTransformedCtmdp) {
  ftwc::Parameters params;
  params.n = 1;
  const ftwc::DirectResult direct = ftwc::build_direct(params);
  UimcAnalysisOptions options;
  options.reachability.avoid = BitVector(3, false);
  const TimedReachabilityResult prior;
  options.reachability.resume = &prior;
  try {
    (void)analyze_timed_reachability_batch(direct.uimc, direct.goal, {1.0}, options);
    FAIL() << "avoid and resume were accepted";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("avoid, resume"), std::string::npos) << what;
    EXPECT_EQ(what.find("kernel"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace unicon
