#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "bisim/bisimulation.hpp"
#include "core/analysis.hpp"
#include "imc/imc.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace unicon {
namespace {

// ------------------------------------------------------------ strong

TEST(StrongBisim, IdenticalBranchesMerge) {
  // 0 -a-> 1, 0 -a-> 2 where 1 and 2 behave identically.
  ImcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, "a", 1);
  b.add_interactive(0, "a", 2);
  b.add_interactive(1, "b", 3);
  b.add_interactive(2, "b", 3);
  const Imc m = b.build();
  const Partition p = strong_bisimulation(m);
  EXPECT_EQ(p.num_blocks, 3u);
  EXPECT_TRUE(p.same(1, 2));
  EXPECT_FALSE(p.same(0, 1));
}

TEST(StrongBisim, DifferentActionsSeparate) {
  ImcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, "a", 2);
  b.add_interactive(1, "b", 3);
  const Imc m = b.build();
  const Partition p = strong_bisimulation(m);
  EXPECT_FALSE(p.same(0, 1));
  EXPECT_TRUE(p.same(2, 3));  // both absorbing
}

TEST(StrongBisim, MarkovRatesAreLumped) {
  // States 1 and 2 both move to {3} with total rate 2 (via different
  // splittings); strong bisimulation lumps them.
  ImcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(0, 1.0, 2);
  b.add_markov(1, 2.0, 3);
  b.add_markov(2, 1.2, 3);
  b.add_markov(2, 0.8, 3);
  const Imc m = b.build();
  const Partition p = strong_bisimulation(m);
  EXPECT_TRUE(p.same(1, 2));
}

TEST(StrongBisim, DifferentRatesSeparate) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 2);
  b.add_markov(1, 2.0, 2);
  const Imc m = b.build();
  EXPECT_FALSE(strong_bisimulation(m).same(0, 1));
}

TEST(StrongBisim, SmallRatesCompareRelatively) {
  // Two Markov states whose only rates into the labelled state 2 differ by
  // a factor 4, below 1e-9 per time unit: not bisimilar, whatever the time
  // unit.
  const std::vector<std::uint32_t> labels = {0, 0, 1};
  for (const double scale : {1.0, 1e-12, 1e12}) {
    ImcBuilder b;
    for (int i = 0; i < 3; ++i) b.add_state();
    b.set_initial(0);
    b.add_markov(0, 1e-10 * scale, 2);
    b.add_markov(1, 4e-10 * scale, 2);
    const Imc m = b.build();
    EXPECT_FALSE(strong_bisimulation(m, &labels).same(0, 1)) << "scale " << scale;
  }
}

TEST(StrongBisim, RatesEqualUpToSummationOrderLump) {
  // 0.1 + 0.2 != 0.3 in binary; the signature's 40-bit rounding lumps them.
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 0.1, 2);
  b.add_markov(0, 0.2, 2);
  b.add_markov(1, 0.3, 2);
  const Imc m = b.build();
  ASSERT_NE(0.1 + 0.2, 0.3);
  EXPECT_TRUE(strong_bisimulation(m).same(0, 1));
}

TEST(StrongBisim, RatesOfUnstableStatesIgnored) {
  // Maximal progress: both states do tau to 2; their (different) rates are
  // preempted and must not split them.
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, kTau, 2);
  b.add_interactive(1, kTau, 2);
  b.add_markov(0, 5.0, 2);
  b.add_markov(1, 50.0, 2);
  const Imc m = b.build();
  EXPECT_TRUE(strong_bisimulation(m).same(0, 1));
}

TEST(StrongBisim, QuotientKeepsTauSelfLoop) {
  // A two-state tau cycle of equivalent states must stay unstable in the
  // strong quotient.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_interactive(1, kTau, 0);
  const Imc m = b.build();
  const Partition p = strong_bisimulation(m);
  ASSERT_TRUE(p.same(0, 1));
  const Imc q = quotient(m, p, QuotientStyle::Strong);
  EXPECT_EQ(q.num_states(), 1u);
  EXPECT_TRUE(q.has_tau(0));
}

// ---------------------------------------------------------- branching

TEST(BranchingBisim, InertTauCollapses) {
  // 0 -tau-> 1 -a-> 2: state 0 and 1 are branching bisimilar.
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_interactive(1, "a", 2);
  const Imc m = b.build();
  const Partition p = branching_bisimulation(m);
  EXPECT_TRUE(p.same(0, 1));
  EXPECT_FALSE(p.same(0, 2));
}

TEST(BranchingBisim, ObservableTauIsKept) {
  // 0 -tau-> 1 where 1 loses the ability to do b: tau is NOT inert.
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_interactive(0, "b", 2);
  b.add_interactive(1, "a", 2);
  const Imc m = b.build();
  EXPECT_FALSE(branching_bisimulation(m).same(0, 1));
}

TEST(BranchingBisim, TauCycleMembersMergeWhenOptionsShared) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_interactive(1, kTau, 0);
  b.add_interactive(0, "a", 2);
  b.add_interactive(1, "a", 2);
  const Imc m = b.build();
  EXPECT_TRUE(branching_bisimulation(m).same(0, 1));
}

TEST(BranchingBisim, TauCycleMembersMergeViaInertReachability) {
  // 0 <-tau-> 1 but only 1 offers a: 0 still reaches the a inertly, so in
  // divergence-blind branching bisimulation the cycle states merge.
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_interactive(1, kTau, 0);
  b.add_interactive(1, "a", 2);
  const Imc m = b.build();
  EXPECT_TRUE(branching_bisimulation(m).same(0, 1));
}

TEST(BranchingBisim, StableStateRateVectorsMatter) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 2);
  b.add_markov(1, 3.0, 2);
  const Imc m = b.build();
  EXPECT_FALSE(branching_bisimulation(m).same(0, 1));
}

TEST(BranchingBisim, UnstableStateInheritsStablePartner) {
  // 1 is unstable but inertly reaches stable 2; its own rates are
  // preempted (condition 2 of Def. 6 only looks at stable states).
  ImcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 2);
  b.add_markov(1, 99.0, 3);  // preempted
  b.add_markov(2, 2.0, 3);
  const Imc m = b.build();
  EXPECT_TRUE(branching_bisimulation(m).same(1, 2));
}

TEST(BranchingBisim, LabelSeedingSeparatesGoalStates) {
  // Without labels everything here is equivalent; goal labels force a split.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(1, 1.0, 0);
  const Imc m = b.build();
  EXPECT_EQ(branching_bisimulation(m).num_blocks, 1u);
  const std::vector<std::uint32_t> labels{0, 1};
  const Partition p = branching_bisimulation(m, &labels);
  EXPECT_EQ(p.num_blocks, 2u);
  EXPECT_FALSE(p.same(0, 1));
}

TEST(BranchingBisim, LabelSizeMismatchThrows) {
  ImcBuilder b;
  b.add_state();
  const Imc m = b.build();
  const std::vector<std::uint32_t> labels{0, 1};
  EXPECT_THROW(branching_bisimulation(m, &labels), ModelError);
}

// ----------------------------------------------------------- quotient

TEST(Quotient, PartitionSizeMismatchThrows) {
  ImcBuilder b;
  b.add_state();
  const Imc m = b.build();
  Partition p;
  p.block_of = {0, 0};
  p.num_blocks = 1;
  EXPECT_THROW(quotient(m, p), ModelError);
}

TEST(Quotient, LumpsRatesIntoBlocks) {
  ImcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(0, 1.0, 2);
  b.add_markov(1, 2.0, 3);
  b.add_markov(2, 2.0, 3);
  const Imc m = b.build();
  const Imc q = minimize_strong(m);
  EXPECT_EQ(q.num_states(), 3u);
  // The merged middle block receives the summed incoming rate.
  EXPECT_DOUBLE_EQ(q.exit_rate(q.initial()), 2.0);
}

TEST(Quotient, PreservesInitialBlock) {
  Rng rng(11);
  const Imc m = testutil::random_uniform_imc(rng);
  const Partition p = branching_bisimulation(m);
  const Imc q = quotient(m, p);
  EXPECT_EQ(q.initial(), p.block_of[m.initial()]);
}

// ----------------------------- Lemma 3 / Corollary 1 (property sweeps)

class MinimizationProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimizationProperties, QuotientPreservesUniformity) {
  // Corollary 1: M uniform iff StoBraBi(M) uniform.
  Rng rng(GetParam());
  testutil::RandomImcConfig config;
  config.num_states = 14;
  config.uniform_rate = 2.5;
  const Imc m = testutil::random_uniform_imc(rng, config);
  ASSERT_TRUE(m.is_uniform(UniformityView::Open, 1e-9));
  const Imc q = minimize_branching(m);
  EXPECT_TRUE(q.is_uniform(UniformityView::Open, 1e-6));
  EXPECT_LE(q.num_states(), m.num_states());
}

TEST_P(MinimizationProperties, QuotientPreservesTimedReachability) {
  // Goal-respecting quotienting must not change sup/inf reachability.
  Rng rng(GetParam() + 500);
  testutil::RandomImcConfig config;
  config.num_states = 12;
  config.uniform_rate = 2.0;
  const Imc m = testutil::random_uniform_imc(rng, config);
  const BitVector goal = testutil::random_goal(rng, m.num_states());

  std::vector<std::uint32_t> labels(m.num_states());
  for (StateId s = 0; s < m.num_states(); ++s) labels[s] = goal[s] ? 1 : 0;
  const Partition p = branching_bisimulation(m, &labels);
  const Imc q = quotient(m, p);
  std::vector<bool> qgoal(q.num_states(), false);
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (goal[s]) qgoal[p.block_of[s]] = true;
  }

  for (double t : {0.5, 2.0}) {
    UimcAnalysisOptions options;
    options.reachability.epsilon = 1e-8;
    const double full = analyze_timed_reachability(m, goal, t, options).value;
    const double reduced = analyze_timed_reachability(q, qgoal, t, options).value;
    EXPECT_NEAR(full, reduced, 1e-6) << "t=" << t;
  }
}

TEST_P(MinimizationProperties, QuotientIsIdempotent) {
  Rng rng(GetParam() + 900);
  const Imc m = testutil::random_uniform_imc(rng);
  const Imc q1 = minimize_branching(m);
  const Imc q2 = minimize_branching(q1);
  EXPECT_EQ(q1.num_states(), q2.num_states());
  EXPECT_EQ(q1.num_interactive_transitions(), q2.num_interactive_transitions());
}

TEST_P(MinimizationProperties, StrongRefinesBranching) {
  // Every strongly bisimilar pair is branching bisimilar: the strong
  // partition refines the branching one.
  Rng rng(GetParam() + 1300);
  testutil::RandomImcConfig config;
  config.num_states = 16;
  const Imc m = testutil::random_uniform_imc(rng, config);
  const Partition strong = strong_bisimulation(m);
  const Partition branching = branching_bisimulation(m);
  EXPECT_GE(strong.num_blocks, branching.num_blocks);
  for (StateId a = 0; a < m.num_states(); ++a) {
    for (StateId b = a + 1; b < m.num_states(); ++b) {
      if (strong.same(a, b)) {
        EXPECT_TRUE(branching.same(a, b)) << a << "," << b;
      }
    }
  }
}

TEST_P(MinimizationProperties, LabeledPartitionRefinesLabelClasses) {
  Rng rng(GetParam() + 1700);
  const Imc m = testutil::random_uniform_imc(rng);
  std::vector<std::uint32_t> labels(m.num_states());
  for (StateId s = 0; s < m.num_states(); ++s) labels[s] = s % 3;
  const Partition p = branching_bisimulation(m, &labels);
  for (StateId a = 0; a < m.num_states(); ++a) {
    for (StateId b = a + 1; b < m.num_states(); ++b) {
      if (p.same(a, b)) {
        EXPECT_EQ(labels[a], labels[b]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizationProperties, ::testing::Range<std::uint64_t>(0, 15));

// ------------------------------------------- reference refinement oracle
//
// Signature refinement written as naively as possible: a signature is a
// std::set of items, rates are lumped per state in a std::map (summed in
// out_markov order, quantized to 1e-9 like the production signatures),
// and a branching signature is the union over every state inertly
// reachable (tau steps inside the block) by plain search instead of an
// SCC condensation.  (old block, signature) keys are numbered in a
// std::map.  The production refinements must return the same canonical
// partitions.

using RefItem = std::tuple<int, std::uint64_t, std::int64_t>;  // kind, action/block, block/rate

Partition reference_refinement(const Imc& m, const std::vector<std::uint32_t>* labels,
                               bool branching) {
  const std::size_t n = m.num_states();
  Partition p;
  p.block_of = labels != nullptr ? *labels : std::vector<std::uint32_t>(n, 0);
  p.num_blocks = static_cast<std::uint32_t>(std::set<std::uint32_t>(p.block_of.begin(),
                                                                    p.block_of.end()).size());
  for (;;) {
    std::map<std::pair<std::uint32_t, std::set<RefItem>>, std::uint32_t> ids;
    std::vector<std::uint32_t> next(n);
    for (StateId s = 0; s < n; ++s) {
      // States inertly reachable from s (s itself for strong bisimulation).
      std::vector<StateId> reach{s};
      std::vector<bool> seen(n, false);
      seen[s] = true;
      for (std::size_t i = 0; branching && i < reach.size(); ++i) {
        for (const LtsTransition& t : m.out_interactive(reach[i])) {
          if (t.action == kTau && p.block_of[t.to] == p.block_of[s] && !seen[t.to]) {
            seen[t.to] = true;
            reach.push_back(t.to);
          }
        }
      }
      std::set<RefItem> signature;
      for (const StateId u : reach) {
        for (const LtsTransition& t : m.out_interactive(u)) {
          const bool inert = t.action == kTau && p.block_of[t.to] == p.block_of[u];
          if (branching && inert) continue;
          signature.emplace(0, t.action, p.block_of[t.to]);
        }
        if (m.stable(u)) {
          std::map<std::uint32_t, double> lumped;
          for (const MarkovTransition& t : m.out_markov(u)) lumped[p.block_of[t.to]] += t.rate;
          for (const auto& [block, rate] : lumped) {
            signature.emplace(1, block, std::llround(rate * 1e9));
          }
        }
      }
      const auto key = std::make_pair(p.block_of[s], std::move(signature));
      next[s] = ids.emplace(key, static_cast<std::uint32_t>(ids.size())).first->second;
    }
    const bool fixpoint = ids.size() == p.num_blocks;
    p.block_of = std::move(next);
    p.num_blocks = static_cast<std::uint32_t>(ids.size());
    if (fixpoint) break;
  }
  p.canonicalize();
  return p;
}

bool has_tau_cycle(const Imc& m) {
  // Colour DFS over tau edges: 0 new, 1 on the path, 2 done.
  std::vector<int> colour(m.num_states(), 0);
  std::vector<std::pair<StateId, std::size_t>> stack;
  for (StateId root = 0; root < m.num_states(); ++root) {
    if (colour[root] != 0) continue;
    stack.emplace_back(root, 0);
    colour[root] = 1;
    while (!stack.empty()) {
      auto& [s, edge] = stack.back();
      const auto out = m.out_interactive(s);
      if (edge < out.size() && out[edge].action == kTau) {
        const StateId t = out[edge++].to;
        if (colour[t] == 1) return true;
        if (colour[t] == 0) {
          colour[t] = 1;
          stack.emplace_back(t, 0);
        }
        continue;
      }
      colour[s] = 2;
      stack.pop_back();
    }
  }
  return false;
}

bool has_parallel_markov_edges(const Imc& m) {
  for (StateId s = 0; s < m.num_states(); ++s) {
    std::set<StateId> targets;
    for (const MarkovTransition& t : m.out_markov(s)) {
      if (!targets.insert(t.to).second) return true;
    }
  }
  return false;
}

TEST(BisimOracle, RefinementsMatchTheReferenceRefinement) {
  std::size_t cyclic = 0, parallel = 0, merged = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed + 4100);
    testutil::RandomImcConfig config;
    config.num_states = 4 + seed % 24;
    config.max_fanout = 2 + static_cast<unsigned>(seed % 4);
    config.tau_cycle_density = 0.15 * static_cast<double>(seed % 4);
    config.tau_bias = 0.6;
    const Imc m = testutil::random_uniform_imc(rng, config);
    cyclic += has_tau_cycle(m);
    parallel += has_parallel_markov_edges(m);

    std::vector<std::uint32_t> labels(m.num_states());
    const std::uint64_t classes = 1 + seed % 3;
    for (std::uint32_t& l : labels) l = static_cast<std::uint32_t>(rng.next_below(classes));

    const std::vector<std::uint32_t>* const seedings[] = {nullptr, &labels};
    for (const std::vector<std::uint32_t>* seeding : seedings) {
      const Partition branching = branching_bisimulation(m, seeding);
      EXPECT_EQ(branching, reference_refinement(m, seeding, true));
      EXPECT_EQ(strong_bisimulation(m, seeding), reference_refinement(m, seeding, false));
      merged += branching.num_blocks < m.num_states();
    }
  }
  // The corpus reaches what it is meant to cover.
  EXPECT_GT(cyclic, 20u);
  EXPECT_GT(parallel, 20u);
  EXPECT_GT(merged, 100u);
}

}  // namespace
}  // namespace unicon
