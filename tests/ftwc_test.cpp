#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "ctmc/transient.hpp"
#include "ftwc/components.hpp"
#include "ftwc/compositional.hpp"
#include "ftwc/ctmc_variant.hpp"
#include "ftwc/direct.hpp"
#include "ftwc/parameters.hpp"
#include "support/errors.hpp"

namespace unicon::ftwc {
namespace {

// ----------------------------------------------------------- property

TEST(Premium, AllUpIsPremium) {
  EXPECT_TRUE(premium(Config{}, 4));
}

TEST(Premium, OneSubClusterSuffices) {
  Config c;
  c.failed_right = 4;
  c.sw_right_up = false;
  c.backbone_up = false;
  EXPECT_TRUE(premium(c, 4));  // left cluster complete behind its switch
}

TEST(Premium, SwitchFailureDisconnectsItsCluster) {
  Config c;
  c.sw_left_up = false;  // left cluster unreachable; right is complete
  EXPECT_TRUE(premium(c, 4));
  c.sw_right_up = false;
  EXPECT_FALSE(premium(c, 4));
}

TEST(Premium, BackbonePoolsBothClusters) {
  Config c;
  c.failed_left = 2;
  c.failed_right = 2;
  EXPECT_TRUE(premium(c, 4));  // 2 + 2 = 4 via the backbone
  c.backbone_up = false;
  EXPECT_FALSE(premium(c, 4));
}

TEST(Premium, CountsMustReachN) {
  Config c;
  c.failed_left = 1;
  c.failed_right = 4;
  EXPECT_FALSE(premium(c, 4));  // 3 + 0 < 4
  c.failed_right = 3;
  EXPECT_TRUE(premium(c, 4));  // 3 + 1 = 4
}

TEST(Premium, QualityLevelsAreMonotone) {
  Config c;
  c.failed_left = 2;
  c.failed_right = 1;
  for (unsigned k = 1; k < 8; ++k) {
    if (!quality(c, 8, k)) {
      // Once a level fails, all higher levels fail as well.
      for (unsigned j = k; j <= 8; ++j) EXPECT_FALSE(quality(c, 8, j));
      break;
    }
  }
  EXPECT_TRUE(quality(c, 8, 1));
  EXPECT_TRUE(premium(Config{}, 8));
  EXPECT_EQ(premium(c, 8), quality(c, 8, 8));
}

TEST(Parameters, RatesMatchFigure1) {
  const Parameters p;
  EXPECT_DOUBLE_EQ(p.fail_rate(Component::WsLeft), 1.0 / 500.0);
  EXPECT_DOUBLE_EQ(p.fail_rate(Component::SwRight), 1.0 / 4000.0);
  EXPECT_DOUBLE_EQ(p.fail_rate(Component::Backbone), 1.0 / 5000.0);
  EXPECT_DOUBLE_EQ(p.repair_rate(Component::WsRight), 2.0);
  EXPECT_DOUBLE_EQ(p.repair_rate(Component::SwLeft), 0.25);
  EXPECT_DOUBLE_EQ(p.repair_rate(Component::Backbone), 0.125);
}

TEST(Parameters, Tags) {
  EXPECT_STREQ(tag(Component::WsLeft), "wsL");
  EXPECT_STREQ(tag(Component::Backbone), "bb");
}

// ----------------------------------------------------- direct generator

TEST(Direct, SmallInstanceBasics) {
  Parameters params;
  params.n = 1;
  const DirectResult r = build_direct(params);
  EXPECT_GT(r.uimc.num_states(), 10u);
  EXPECT_TRUE(r.uimc.is_uniform(UniformityView::Closed, 1e-9));
  EXPECT_GT(r.uniform_rate, 2.0);  // dominated by the ws repair rate
  EXPECT_LT(r.uniform_rate, 2.2);
  ASSERT_EQ(r.goal.size(), r.uimc.num_states());
  ASSERT_EQ(r.configs.size(), r.uimc.num_states());
  // Initial state: everything up -> premium.
  EXPECT_FALSE(r.goal[r.uimc.initial()]);
}

TEST(Direct, GoalMatchesPremiumPredicate) {
  Parameters params;
  params.n = 2;
  const DirectResult r = build_direct(params);
  for (StateId s = 0; s < r.uimc.num_states(); ++s) {
    EXPECT_EQ(r.goal[s], !premium(r.configs[s], params.n));
  }
}

TEST(Direct, InteractiveStatesHaveNoMarkovTransitions) {
  Parameters params;
  params.n = 2;
  const DirectResult r = build_direct(params);
  for (StateId s = 0; s < r.uimc.num_states(); ++s) {
    if (r.uimc.has_interactive(s)) {
      EXPECT_FALSE(r.uimc.has_markov(s));
    }
  }
}

TEST(Direct, StateCountGrowsQuadratically) {
  Parameters params;
  params.n = 2;
  const std::size_t n2 = build_direct(params).uimc.num_states();
  params.n = 4;
  const std::size_t n4 = build_direct(params).uimc.num_states();
  EXPECT_GT(n4, 2 * n2);
  EXPECT_LT(n4, 10 * n2);
}

TEST(Direct, WithoutReleaseIsSmaller) {
  Parameters with;
  with.n = 2;
  Parameters without = with;
  without.with_release = false;
  EXPECT_GT(build_direct(with).uimc.num_states(), build_direct(without).uimc.num_states());
}

TEST(Direct, ReleaseVariantsAgreeOnWorstCase) {
  // The release handshake is instantaneous; it must not change the
  // worst-case probability.
  Parameters with;
  with.n = 1;
  Parameters without = with;
  without.with_release = false;
  const auto a = build_direct(with);
  const auto b = build_direct(without);
  for (double t : {20.0, 100.0}) {
    const double pa = analyze_timed_reachability(a.uimc, a.goal, t).value;
    const double pb = analyze_timed_reachability(b.uimc, b.goal, t).value;
    EXPECT_NEAR(pa, pb, 1e-6) << t;
  }
}

TEST(Direct, RecordNamesProducesParsableTuples) {
  Parameters params;
  params.n = 1;
  const DirectResult r = build_direct(params, /*record_names=*/true);
  EXPECT_EQ(r.uimc.state_name(r.uimc.initial()), "(0,0,o,o,o,idle)");
}

// ------------------------------------- Table 1 structural reproduction

struct Table1Row {
  unsigned n;
  std::size_t inter_states, markov_states, inter_trans, markov_trans;
};

// Without a printer gtest names each case by the row's raw bytes, padding
// included, so the names would change from one listing to the next.
void PrintTo(const Table1Row& row, std::ostream* os) { *os << "n=" << row.n; }

class Table1Pin : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1Pin, AlternatingImcSizesMatchThePaperExactly) {
  // The paper's Table 1 columns 2-5 for the alternating uIMC.  These are
  // structural invariants of the FTWC semantics; any drift in the
  // generator, the urgency cut or the uniformization breaks this pin.
  const Table1Row expected = GetParam();
  Parameters params;
  params.n = expected.n;
  const DirectResult r = build_direct(params);

  std::size_t inter_states = 0, markov_states = 0;
  for (StateId s = 0; s < r.uimc.num_states(); ++s) {
    if (r.uimc.has_interactive(s)) {
      ++inter_states;
    } else if (r.uimc.has_markov(s)) {
      ++markov_states;
    }
  }
  EXPECT_EQ(inter_states, expected.inter_states);
  EXPECT_EQ(markov_states, expected.markov_states);
  EXPECT_EQ(r.uimc.num_interactive_transitions(), expected.inter_trans);
  EXPECT_EQ(r.uimc.num_markov_transitions(), expected.markov_trans);
}

INSTANTIATE_TEST_SUITE_P(PaperRows, Table1Pin,
                         ::testing::Values(Table1Row{1, 110, 81, 155, 324},
                                           Table1Row{2, 274, 205, 403, 920},
                                           Table1Row{4, 818, 621, 1235, 3000},
                                           Table1Row{8, 2770, 2125, 4243, 10712}));

// --------------------------------------------------- CTMC (Gamma) model

TEST(CtmcVariant, BasicShape) {
  Parameters params;
  params.n = 1;
  const CtmcResult r = build_ctmc_variant(params);
  EXPECT_GT(r.ctmc.num_states(), 10u);
  EXPECT_EQ(r.goal.size(), r.ctmc.num_states());
  EXPECT_FALSE(r.goal[r.ctmc.initial()]);
}

TEST(CtmcVariant, RejectsBadParameters) {
  Parameters params;
  params.n = 0;
  EXPECT_THROW(build_ctmc_variant(params), ModelError);
  params.n = 1;
  params.decision_rate = 0.0;
  EXPECT_THROW(build_ctmc_variant(params), ModelError);
}

class CtmcOverestimation : public ::testing::TestWithParam<double> {};

TEST_P(CtmcOverestimation, CtmcIsAboveCtmdpWorstCase) {
  // The paper's headline observation (Fig. 4): the Gamma-race CTMC
  // overestimates the faithful worst case.
  const double t = GetParam();
  Parameters params;
  params.n = 2;
  const auto faithful = build_direct(params);
  const auto approx = build_ctmc_variant(params);

  const double worst = analyze_timed_reachability(faithful.uimc, faithful.goal, t).value;
  const double ctmc =
      timed_reachability(approx.ctmc, approx.goal, t, TransientOptions{1e-6})
          .probabilities[approx.ctmc.initial()];
  EXPECT_GE(ctmc, worst - 1e-7) << "t=" << t;
}

INSTANTIATE_TEST_SUITE_P(Horizons, CtmcOverestimation,
                         ::testing::Values(10.0, 100.0, 1000.0));

TEST(CtmcVariant, OverestimationShrinksWithFasterDecisions) {
  // As Gamma grows the race approximates the urgent nondeterministic
  // decision better, so the gap to the CTMDP worst case shrinks (it never
  // vanishes: the nondeterministic model has no race at all).
  Parameters params;
  params.n = 2;
  const auto faithful = build_direct(params);
  const double t = 500.0;
  const double worst = analyze_timed_reachability(faithful.uimc, faithful.goal, t).value;

  double previous_gap = 1.0;
  for (double gamma : {20.0, 100.0, 500.0}) {
    Parameters variant = params;
    variant.decision_rate = gamma;
    const auto approx = build_ctmc_variant(variant);
    const double p = timed_reachability(approx.ctmc, approx.goal, t, TransientOptions{1e-8})
                         .probabilities[approx.ctmc.initial()];
    const double gap = p - worst;
    EXPECT_GT(gap, -1e-7) << gamma;   // still an overestimate
    EXPECT_LT(gap, previous_gap + 1e-9) << gamma;  // and shrinking
    previous_gap = gap;
  }
}

TEST(Direct, QualityGoalsAreMonotoneInLevel) {
  // Lower quality thresholds are easier to keep: P(lose quality k within
  // t) decreases as k decreases.
  Parameters params;
  params.n = 4;
  const DirectResult r = build_direct(params);
  double prev = -1.0;
  for (unsigned k : {1u, 2u, 3u, 4u}) {
    std::vector<bool> goal(r.uimc.num_states());
    for (StateId s = 0; s < r.uimc.num_states(); ++s) {
      goal[s] = !quality(r.configs[s], params.n, k);
    }
    const double p = analyze_timed_reachability(r.uimc, goal, 1000.0).value;
    EXPECT_GE(p + 1e-9, prev) << "k=" << k;
    prev = p;
  }
}

TEST(Direct, ExitRatesOfMarkovStatesEqualUniformRate) {
  Parameters params;
  params.n = 2;
  const DirectResult r = build_direct(params);
  for (StateId s = 0; s < r.uimc.num_states(); ++s) {
    if (!r.uimc.has_interactive(s)) {
      EXPECT_NEAR(r.uimc.exit_rate(s), r.uniform_rate, 1e-9) << s;
    }
  }
}

// ---------------------------------------------------- compositional path

TEST(Compositional, ComponentImcIsUniform) {
  auto actions = std::make_shared<ActionTable>();
  const Parameters params;
  const Imc ws = component_imc(Component::WsLeft, params, actions);
  EXPECT_TRUE(ws.is_uniform(UniformityView::Open, 1e-9));
  EXPECT_NEAR(*ws.uniform_rate(UniformityView::Open, 1e-9),
              params.ws_fail + params.ws_repair, 1e-12);
}

TEST(Compositional, RepairUnitShape) {
  auto actions = std::make_shared<ActionTable>();
  const Lts ru = repair_unit_lts(actions);
  EXPECT_EQ(ru.num_states(), 6u);
  EXPECT_EQ(ru.num_transitions(), 10u);
}

TEST(Compositional, BuildsUniformModel) {
  Parameters params;
  params.n = 1;
  const CompositionalResult r = build_compositional(params);
  EXPECT_TRUE(r.uimc.is_uniform(UniformityView::Closed, 1e-6));
  EXPECT_GT(r.uniform_rate, 0.0);
  EXPECT_EQ(r.goal.size(), r.uimc.num_states());
  EXPECT_FALSE(r.goal[r.uimc.initial()]);
  EXPECT_FALSE(r.stages.empty());
}

TEST(Compositional, MinimizationShrinksStages) {
  Parameters params;
  params.n = 2;
  CompositionalOptions with;
  CompositionalOptions without;
  without.minimize = false;
  const auto small = build_compositional(params, with);
  const auto large = build_compositional(params, without);
  EXPECT_LE(small.uimc.num_states(), large.uimc.num_states());
}

TEST(Compositional, ParseConfigRoundTrip) {
  const Config c = parse_config("(2,0,o,d,o,idle)", 4);
  EXPECT_EQ(c.failed_left, 2u);
  EXPECT_EQ(c.failed_right, 0u);
  EXPECT_TRUE(c.sw_left_up);
  EXPECT_FALSE(c.sw_right_up);
  EXPECT_TRUE(c.backbone_up);
  EXPECT_THROW(parse_config("(1,2)", 4), ModelError);
  EXPECT_THROW(parse_config("(9,0,o,o,o,idle)", 4), ModelError);
}

class RouteAgreement : public ::testing::TestWithParam<std::tuple<unsigned, double>> {};

TEST_P(RouteAgreement, CompositionalAndDirectAgree) {
  // The two construction routes model the same system ("equivalent models
  // ... up to uniformity", Sec. 5); worst-case probabilities must agree.
  const auto [n, t] = GetParam();
  Parameters params;
  params.n = n;
  const auto direct = build_direct(params);
  const auto comp = build_compositional(params);

  UimcAnalysisOptions options;
  options.reachability.epsilon = 1e-8;
  const double via_direct = analyze_timed_reachability(direct.uimc, direct.goal, t, options).value;
  const double via_comp = analyze_timed_reachability(comp.uimc, comp.goal, t, options).value;
  EXPECT_NEAR(via_direct, via_comp, 1e-5) << "n=" << n << " t=" << t;
}

INSTANTIATE_TEST_SUITE_P(SmallInstances, RouteAgreement,
                         ::testing::Combine(::testing::Values(1u, 2u),
                                            ::testing::Values(50.0, 200.0)));

}  // namespace
}  // namespace unicon::ftwc
