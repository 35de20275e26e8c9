#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "dft/lower.hpp"
#include "dft/sema.hpp"
#include "imc/compose.hpp"
#include "imc/imc.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/run_guard.hpp"
#include "test_util.hpp"

namespace unicon {
namespace {

Imc single_action_imc(const std::shared_ptr<ActionTable>& actions, const std::string& a) {
  ImcBuilder b(actions);
  b.add_state("p0");
  b.add_state("p1");
  b.set_initial(0);
  b.add_interactive(0, a, 1);
  return b.build();
}

Imc single_rate_imc(const std::shared_ptr<ActionTable>& actions, double rate) {
  ImcBuilder b(actions);
  b.add_state("m0");
  b.add_state("m1");
  b.set_initial(0);
  b.add_markov(0, rate, 1);
  return b.build();
}

// ------------------------------------------------------ SOS rule checks

TEST(Compose, InterleavingIndependentActions) {
  auto actions = std::make_shared<ActionTable>();
  const Imc left = single_action_imc(actions, "a");
  const Imc right = single_action_imc(actions, "b");
  const Imc prod = parallel_compose(left, {}, right);
  // Diamond: 2x2 states, a and b in either order.
  EXPECT_EQ(prod.num_states(), 4u);
  EXPECT_EQ(prod.num_interactive_transitions(), 4u);
}

TEST(Compose, SynchronizedActionFiresJointly) {
  auto actions = std::make_shared<ActionTable>();
  const Imc left = single_action_imc(actions, "a");
  const Imc right = single_action_imc(actions, "a");
  const Imc prod = parallel_compose(left, {actions->id("a")}, right);
  // Only the joint a-step: 2 states, 1 transition.
  EXPECT_EQ(prod.num_states(), 2u);
  EXPECT_EQ(prod.num_interactive_transitions(), 1u);
}

TEST(Compose, SynchronizationBlocksWhenPartnerCannot) {
  auto actions = std::make_shared<ActionTable>();
  const Imc left = single_action_imc(actions, "a");
  const Imc right = single_action_imc(actions, "b");  // never offers a
  const Imc prod = parallel_compose(left, {actions->id("a")}, right);
  // a blocked forever; only b fires.
  EXPECT_EQ(prod.num_interactive_transitions(), 1u);
}

TEST(Compose, TauInSyncSetRejected) {
  auto actions = std::make_shared<ActionTable>();
  EXPECT_THROW(CompositionExpr::parallel(CompositionExpr::leaf(single_action_imc(actions, "a")),
                                         {kTau},
                                         CompositionExpr::leaf(single_action_imc(actions, "a"))),
               ModelError);
}

TEST(Compose, MarkovTransitionsInterleave) {
  auto actions = std::make_shared<ActionTable>();
  const Imc left = single_rate_imc(actions, 1.0);
  const Imc right = single_rate_imc(actions, 2.0);
  const Imc prod = parallel_compose(left, {}, right);
  EXPECT_EQ(prod.num_states(), 4u);
  EXPECT_EQ(prod.num_markov_transitions(), 4u);
  // Initial state carries both rates.
  EXPECT_DOUBLE_EQ(prod.exit_rate(prod.initial()), 3.0);
}

TEST(Compose, DifferentActionTablesRejected) {
  const Imc left = single_action_imc(std::make_shared<ActionTable>(), "a");
  const Imc right = single_action_imc(std::make_shared<ActionTable>(), "a");
  EXPECT_THROW(parallel_compose(left, {}, right), ModelError);
}

TEST(Compose, HideNodeRenamesToTau) {
  auto actions = std::make_shared<ActionTable>();
  const Imc leaf = single_action_imc(actions, "a");
  auto expr = CompositionExpr::hide(CompositionExpr::leaf(leaf), {actions->id("a")});
  const Imc m = expr.explore();
  ASSERT_EQ(m.num_interactive_transitions(), 1u);
  EXPECT_EQ(m.interactive_transitions()[0].action, kTau);
}

TEST(Compose, HideAllNode) {
  auto actions = std::make_shared<ActionTable>();
  auto expr = CompositionExpr::hide_all(CompositionExpr::parallel(
      CompositionExpr::leaf(single_action_imc(actions, "a")), {},
      CompositionExpr::leaf(single_action_imc(actions, "b"))));
  const Imc m = expr.explore();
  for (const LtsTransition& t : m.interactive_transitions()) EXPECT_EQ(t.action, kTau);
}

TEST(Compose, HiddenActionNoLongerSynchronizes) {
  // Hiding below a parallel node makes the action internal; the outer sync
  // set cannot capture it.
  auto actions = std::make_shared<ActionTable>();
  const Imc left_leaf = single_action_imc(actions, "a");
  const Imc right_leaf = single_action_imc(actions, "a");
  auto hidden_left = CompositionExpr::hide(CompositionExpr::leaf(left_leaf), {actions->id("a")});
  auto expr = CompositionExpr::parallel(std::move(hidden_left), {actions->id("a")},
                                        CompositionExpr::leaf(right_leaf));
  const Imc m = expr.explore();
  // Left moves independently via tau; right's a is blocked forever.
  EXPECT_EQ(m.num_states(), 2u);
  EXPECT_EQ(m.num_interactive_transitions(), 1u);
  EXPECT_EQ(m.interactive_transitions()[0].action, kTau);
}

TEST(Compose, UrgentExplorationCutsMarkovAtInteractiveStates) {
  auto actions = std::make_shared<ActionTable>();
  ImcBuilder b(actions);
  b.add_state();
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_interactive(0, "a", 1);
  b.add_markov(0, 5.0, 2);
  const Imc hybrid = b.build();

  ExploreOptions urgent;
  urgent.urgent = true;
  const Imc closed = CompositionExpr::leaf(hybrid).explore(urgent);
  EXPECT_EQ(closed.num_markov_transitions(), 0u);
  EXPECT_EQ(closed.num_states(), 2u);  // Markov successor never materialized
}

TEST(Compose, MaxStatesGuard) {
  auto actions = std::make_shared<ActionTable>();
  const Imc left = single_rate_imc(actions, 1.0);
  const Imc right = single_rate_imc(actions, 2.0);
  ExploreOptions options;
  options.max_states = 2;
  EXPECT_THROW(parallel_compose(left, {}, right, options), ModelError);
}

TEST(Compose, RecordNamesBuildsTuples) {
  auto actions = std::make_shared<ActionTable>();
  ExploreOptions options;
  options.record_names = true;
  const Imc prod =
      parallel_compose(single_action_imc(actions, "a"), {}, single_action_imc(actions, "b"),
                       options);
  EXPECT_EQ(prod.state_name(prod.initial()), "(p0,p0)");
}

TEST(Compose, OnlyReachableProductStatesMaterialize) {
  auto actions = std::make_shared<ActionTable>();
  // Sync on a: the right component needs b first, which is blocked by sync
  // on b with a left component that never offers it -> deadlock; only the
  // initial state exists.
  ImcBuilder rb(actions);
  rb.add_state();
  rb.add_state();
  rb.add_state();
  rb.set_initial(0);
  rb.add_interactive(0, "b", 1);
  rb.add_interactive(1, "a", 2);
  const Imc right = rb.build();
  const Imc left = single_action_imc(actions, "a");
  const Imc prod =
      parallel_compose(left, {actions->id("a"), actions->id("b")}, right);
  EXPECT_EQ(prod.num_states(), 1u);
  EXPECT_EQ(prod.num_interactive_transitions(), 0u);
}

TEST(Compose, ThreeWayncSynchronizationThroughNesting) {
  // a |[x]| (b |[x]| c): action x fires only when all three agree.
  auto actions = std::make_shared<ActionTable>();
  const Imc a = single_action_imc(actions, "x");
  const Imc b = single_action_imc(actions, "x");
  const Imc c = single_action_imc(actions, "x");
  const Action x = actions->id("x");
  auto expr = CompositionExpr::parallel(
      CompositionExpr::leaf(a), {x},
      CompositionExpr::parallel(CompositionExpr::leaf(b), {x}, CompositionExpr::leaf(c)));
  const Imc prod = expr.explore();
  EXPECT_EQ(prod.num_states(), 2u);
  EXPECT_EQ(prod.num_interactive_transitions(), 1u);
}

TEST(Compose, InterleaveIsAssociativeOnStateCounts) {
  auto actions = std::make_shared<ActionTable>();
  const Imc a = single_action_imc(actions, "a");
  const Imc b = single_rate_imc(actions, 1.0);
  const Imc c = single_action_imc(actions, "c");
  const Imc left = CompositionExpr::interleave(
                       CompositionExpr::interleave(CompositionExpr::leaf(a), CompositionExpr::leaf(b)),
                       CompositionExpr::leaf(c))
                       .explore();
  const Imc right = CompositionExpr::interleave(
                        CompositionExpr::leaf(a),
                        CompositionExpr::interleave(CompositionExpr::leaf(b), CompositionExpr::leaf(c)))
                        .explore();
  EXPECT_EQ(left.num_states(), right.num_states());
  EXPECT_EQ(left.num_interactive_transitions(), right.num_interactive_transitions());
  EXPECT_EQ(left.num_markov_transitions(), right.num_markov_transitions());
}

TEST(Compose, RatesAddAcrossManyComponents) {
  auto actions = std::make_shared<ActionTable>();
  CompositionExpr expr = CompositionExpr::leaf(single_rate_imc(actions, 0.5));
  for (int i = 0; i < 4; ++i) {
    expr = CompositionExpr::interleave(std::move(expr),
                                       CompositionExpr::leaf(single_rate_imc(actions, 0.5)));
  }
  const Imc prod = expr.explore();
  EXPECT_DOUBLE_EQ(prod.exit_rate(prod.initial()), 2.5);
  EXPECT_EQ(prod.num_states(), 32u);
}

TEST(Compose, SynchronizedMarkovNeverHappens) {
  // Markov transitions always interleave even if both components carry the
  // same rates: the initial product state has both exit rates summed, not
  // a "joint" transition.
  auto actions = std::make_shared<ActionTable>();
  const Imc a = single_rate_imc(actions, 2.0);
  const Imc b = single_rate_imc(actions, 2.0);
  const Imc prod = parallel_compose(a, {}, b);
  const auto out = prod.out_markov(prod.initial());
  EXPECT_EQ(out.size(), 2u);
}

// ------------------------------------- Lemmas 1 and 2 (property sweeps)

class UniformityPreservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformityPreservation, ParallelCompositionAddsUniformRates) {
  // Lemma 2: M |[A]| N is uniform whenever M and N are; rates add up.
  Rng rng(GetParam());
  testutil::RandomImcConfig config;
  config.num_states = 8;
  config.uniform_rate = 2.0;

  ImcBuilder shared_builder;  // to share an action table across components
  auto actions = shared_builder.action_table();

  const Imc m = testutil::random_uniform_imc(rng, config);
  config.uniform_rate = 3.0;
  const Imc n = testutil::random_uniform_imc(rng, config);
  // Rebuild n over m's table so they can be composed.
  ImcBuilder rebuild(m.action_table());
  for (StateId s = 0; s < n.num_states(); ++s) rebuild.add_state();
  rebuild.set_initial(n.initial());
  for (const LtsTransition& t : n.interactive_transitions()) {
    rebuild.add_interactive(t.from, m.action_table()->intern(n.actions().name(t.action)), t.to);
  }
  for (const MarkovTransition& t : n.markov_transitions()) {
    rebuild.add_markov(t.from, t.rate, t.to);
  }
  const Imc n2 = rebuild.build();

  ASSERT_TRUE(m.is_uniform(UniformityView::Open, 1e-9));
  ASSERT_TRUE(n2.is_uniform(UniformityView::Open, 1e-9));

  const Imc prod = parallel_compose(m, {m.action_table()->id("a")}, n2);
  ASSERT_TRUE(prod.is_uniform(UniformityView::Open, 1e-6));
  EXPECT_NEAR(*prod.uniform_rate(UniformityView::Open, 1e-6), 5.0, 1e-9);
}

TEST_P(UniformityPreservation, HidingPreservesUniformity) {
  // Lemma 1: hide a in (M) is uniform whenever M is.
  Rng rng(GetParam() + 1000);
  testutil::RandomImcConfig config;
  config.num_states = 10;
  config.uniform_rate = 4.0;
  config.tau_bias = 0.2;  // mostly visible actions so hiding does something
  const Imc m = testutil::random_uniform_imc(rng, config);
  ASSERT_TRUE(m.is_uniform(UniformityView::Open, 1e-9));
  const Imc h = m.hide({m.action_table()->id("a")});
  EXPECT_TRUE(h.is_uniform(UniformityView::Open, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniformityPreservation, ::testing::Range<std::uint64_t>(0, 20));

// ------------------------------------------- reference explorer oracle
//
// A deliberately naive explorer: tuples are std::vector keys of a
// std::map, and every state recomputes its move lists recursively with
// freshly allocated vectors, in the SOS order compose.hpp documents.  The
// production explorer must reproduce it byte for byte: the same state
// order, names and tuples, and the same transitions with the same rates.

struct RefNode {
  enum class Kind { Leaf, Parallel, Hide, HideAll } kind = Kind::Leaf;
  std::size_t leaf = 0;        // Leaf: index into the leaf list
  std::set<Action> actions;    // Parallel: sync set; Hide: hidden set
  std::vector<RefNode> children;
};

struct RefMove {
  Action action;
  std::vector<std::pair<std::size_t, StateId>> updates;
};

struct RefTree {
  std::vector<Imc> leaves;
  RefNode root;
};

std::vector<RefMove> ref_interactive(const RefTree& tree, const RefNode& node,
                                     const std::vector<StateId>& tuple) {
  std::vector<RefMove> out;
  switch (node.kind) {
    case RefNode::Kind::Leaf:
      for (const LtsTransition& t : tree.leaves[node.leaf].out_interactive(tuple[node.leaf])) {
        out.push_back(RefMove{t.action, {{node.leaf, t.to}}});
      }
      break;
    case RefNode::Kind::Parallel: {
      const auto left = ref_interactive(tree, node.children[0], tuple);
      const auto right = ref_interactive(tree, node.children[1], tuple);
      for (const RefMove& l : left) {
        if (node.actions.count(l.action) == 0) out.push_back(l);
      }
      for (const RefMove& r : right) {
        if (node.actions.count(r.action) == 0) out.push_back(r);
      }
      for (const RefMove& l : left) {
        if (node.actions.count(l.action) == 0) continue;
        for (const RefMove& r : right) {
          if (r.action != l.action) continue;
          RefMove joint = l;
          joint.updates.insert(joint.updates.end(), r.updates.begin(), r.updates.end());
          out.push_back(joint);
        }
      }
      break;
    }
    case RefNode::Kind::Hide:
    case RefNode::Kind::HideAll:
      out = ref_interactive(tree, node.children[0], tuple);
      for (RefMove& m : out) {
        if (node.kind == RefNode::Kind::HideAll || node.actions.count(m.action) != 0) {
          m.action = kTau;
        }
      }
      break;
  }
  return out;
}

struct RefResult {
  Imc system;
  std::vector<StateId> tuples;  // flat, stride = number of leaves
  std::size_t joint_moves_3 = 0;  // interactive moves that update >= 3 leaves
};

RefResult ref_explore(const RefTree& tree, bool urgent, bool names) {
  const std::size_t width = tree.leaves.size();
  ImcBuilder builder(tree.leaves.front().action_table());
  std::map<std::vector<StateId>, StateId> ids;
  std::vector<std::vector<StateId>> frontier;
  RefResult result;
  auto intern = [&](const std::vector<StateId>& tuple) {
    const auto it = ids.find(tuple);
    if (it != ids.end()) return it->second;
    std::string name;
    if (names) {
      name = "(";
      for (std::size_t i = 0; i < width; ++i) {
        if (i) name += ',';
        const std::string& local = tree.leaves[i].state_name(tuple[i]);
        name += local.empty() ? std::to_string(tuple[i]) : local;
      }
      name += ')';
    }
    const StateId id = builder.add_state(name);
    ids.emplace(tuple, id);
    frontier.push_back(tuple);
    result.tuples.insert(result.tuples.end(), tuple.begin(), tuple.end());
    return id;
  };
  std::vector<StateId> initial;
  for (const Imc& leaf : tree.leaves) initial.push_back(leaf.initial());
  builder.set_initial(intern(initial));
  for (std::size_t cursor = 0; cursor < frontier.size(); ++cursor) {
    const std::vector<StateId> tuple = frontier[cursor];
    const auto from = static_cast<StateId>(cursor);
    const std::vector<RefMove> moves = ref_interactive(tree, tree.root, tuple);
    for (const RefMove& m : moves) {
      std::vector<StateId> next = tuple;
      for (const auto& [leaf, to] : m.updates) next[leaf] = to;
      if (m.updates.size() >= 3) ++result.joint_moves_3;
      builder.add_interactive(from, m.action, intern(next));
    }
    if (urgent && !moves.empty()) continue;
    for (std::size_t leaf = 0; leaf < width; ++leaf) {
      for (const MarkovTransition& t : tree.leaves[leaf].out_markov(tuple[leaf])) {
        std::vector<StateId> next = tuple;
        next[leaf] = t.to;
        builder.add_markov(from, t.rate, intern(next));
      }
    }
  }
  result.system = builder.build();
  return result;
}

/// A small random component over {tau, a, b, c, d}: self-loops, parallel
/// Markov edges and unnamed states included.
Imc random_component(Rng& rng, const std::shared_ptr<ActionTable>& actions) {
  static const char* const kActions[] = {"tau", "a", "b", "c", "d"};
  ImcBuilder b(actions);
  const auto n = static_cast<StateId>(1 + rng.next_below(4));
  for (StateId s = 0; s < n; ++s) {
    b.add_state(rng.next_double() < 0.3 ? std::string() : std::string("q").append(std::to_string(s)));
  }
  b.set_initial(static_cast<StateId>(rng.next_below(n)));
  for (StateId s = 0; s < n; ++s) {
    for (std::uint64_t k = rng.next_below(4); k > 0; --k) {
      b.add_interactive(s, kActions[rng.next_below(5)], static_cast<StateId>(rng.next_below(n)));
    }
    for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
      b.add_markov(s, 0.25 + 3.0 * rng.next_double(), static_cast<StateId>(rng.next_below(n)));
    }
  }
  return b.build();
}

std::set<Action> random_action_set(Rng& rng, const std::shared_ptr<ActionTable>& actions) {
  std::set<Action> set;
  for (const char* a : {"a", "b", "c", "d"}) {
    if (rng.next_double() < 0.5) set.insert(actions->intern(a));
  }
  return set;
}

/// Builds a random expression and its reference mirror side by side.
CompositionExpr random_tree(Rng& rng, const std::shared_ptr<ActionTable>& actions, unsigned depth,
                            RefTree& tree, RefNode& node) {
  const double r = rng.next_double();
  if (depth == 0 || r < 0.2) {
    node.kind = RefNode::Kind::Leaf;
    node.leaf = tree.leaves.size();
    tree.leaves.push_back(random_component(rng, actions));
    return CompositionExpr::leaf(tree.leaves.back());
  }
  if (r < 0.75) {
    node.kind = RefNode::Kind::Parallel;
    node.children.resize(2);
    CompositionExpr left = random_tree(rng, actions, depth - 1, tree, node.children[0]);
    node.actions = random_action_set(rng, actions);
    CompositionExpr right = random_tree(rng, actions, depth - 1, tree, node.children[1]);
    return CompositionExpr::parallel(
        std::move(left), std::unordered_set<Action>(node.actions.begin(), node.actions.end()),
        std::move(right));
  }
  node.children.resize(1);
  CompositionExpr inner = random_tree(rng, actions, depth - 1, tree, node.children[0]);
  if (r < 0.9) {
    node.kind = RefNode::Kind::Hide;
    node.actions = random_action_set(rng, actions);
    return CompositionExpr::hide(
        std::move(inner), std::unordered_set<Action>(node.actions.begin(), node.actions.end()));
  }
  node.kind = RefNode::Kind::HideAll;
  return CompositionExpr::hide_all(std::move(inner));
}

void expect_same_imc(const Imc& got, const Imc& want) {
  ASSERT_EQ(got.num_states(), want.num_states());
  EXPECT_EQ(got.initial(), want.initial());
  for (StateId s = 0; s < want.num_states(); ++s) {
    ASSERT_EQ(got.state_name(s), want.state_name(s)) << "state " << s;
  }
  ASSERT_EQ(got.num_interactive_transitions(), want.num_interactive_transitions());
  for (std::size_t i = 0; i < want.num_interactive_transitions(); ++i) {
    ASSERT_EQ(got.interactive_transitions()[i], want.interactive_transitions()[i]) << i;
  }
  ASSERT_EQ(got.num_markov_transitions(), want.num_markov_transitions());
  for (std::size_t i = 0; i < want.num_markov_transitions(); ++i) {
    const MarkovTransition& g = got.markov_transitions()[i];
    const MarkovTransition& w = want.markov_transitions()[i];
    ASSERT_EQ(g.from, w.from) << i;
    ASSERT_EQ(g.to, w.to) << i;
    ASSERT_EQ(std::memcmp(&g.rate, &w.rate, sizeof(double)), 0) << i;
  }
}

/// A ring of @p n two-state leaves passing tokens: leaf i takes a token
/// from its left neighbour on its own action a_i, passes it on by a_{i+1},
/// or loses it at a rate.  The tree composes the leaves left to right,
/// synchronising on a_i where leaf i joins, on a_0 too where the ring
/// closes, and hides each even a_i once both of its leaves are in.  Leaves
/// 0 and n/2 start with a token.
CompositionExpr ring_tree(std::size_t n, const std::shared_ptr<ActionTable>& actions,
                          RefTree& tree) {
  auto action = [&](std::size_t i) { return actions->intern("a" + std::to_string(i % n)); };
  for (std::size_t i = 0; i < n; ++i) {
    ImcBuilder b(actions);
    b.add_state("idle");
    b.add_state("token");
    b.set_initial(i == 0 || i == n / 2 ? 1 : 0);
    b.add_interactive(0, action(i), 1);
    b.add_interactive(1, action(i + 1), 0);
    b.add_markov(1, 1.0 + 0.01 * static_cast<double>(i), 0);
    tree.leaves.push_back(b.build());
  }
  RefNode node;  // leaf 0
  CompositionExpr expr = CompositionExpr::leaf(tree.leaves[0]);
  for (std::size_t i = 1; i < n; ++i) {
    RefNode parallel;
    parallel.kind = RefNode::Kind::Parallel;
    parallel.actions = {action(i)};
    if (i == n - 1) parallel.actions.insert(action(0));
    parallel.children.resize(2);
    parallel.children[0] = std::move(node);
    parallel.children[1].leaf = i;
    expr = CompositionExpr::parallel(
        std::move(expr),
        std::unordered_set<Action>(parallel.actions.begin(), parallel.actions.end()),
        CompositionExpr::leaf(tree.leaves[i]));
    node = std::move(parallel);
    std::set<Action> hidden;
    if (i % 2 == 0) hidden.insert(action(i));
    if (i == n - 1) hidden.insert(action(0));
    if (hidden.empty()) continue;
    RefNode hide;
    hide.kind = RefNode::Kind::Hide;
    hide.actions = hidden;
    hide.children.push_back(std::move(node));
    expr = CompositionExpr::hide(std::move(expr),
                                 std::unordered_set<Action>(hidden.begin(), hidden.end()));
    node = std::move(hide);
  }
  tree.root = std::move(node);
  return expr;
}

struct OracleCoverage {
  std::size_t joint_moves_3 = 0, total_states = 0;
};

/// Explores @p expr under every urgent/names combination and compares it
/// with the reference explorer on its mirror @p tree.
void expect_matches_reference(const CompositionExpr& expr, const RefTree& tree,
                              OracleCoverage& coverage) {
  ASSERT_EQ(expr.num_leaves(), tree.leaves.size());
  for (const bool urgent : {false, true}) {
    for (const bool names : {false, true}) {
      const RefResult want = ref_explore(tree, urgent, names);
      ExploreOptions options;
      options.urgent = urgent;
      options.record_names = names;
      std::vector<StateId> tuples{42};  // stale content must be replaced
      options.record_tuples = &tuples;
      const Imc got = expr.explore(options);
      expect_same_imc(got, want.system);
      EXPECT_EQ(tuples, want.tuples);
      coverage.joint_moves_3 += want.joint_moves_3;
      coverage.total_states += want.system.num_states();
    }
  }
}

TEST(ComposeOracle, ExploreMatchesTheReferenceExplorerByteForByte) {
  OracleCoverage coverage;
  std::size_t hides = 0, hide_alls = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto actions = std::make_shared<ActionTable>();
    RefTree tree;
    const CompositionExpr expr =
        random_tree(rng, actions, 1 + static_cast<unsigned>(seed % 5), tree, tree.root);
    std::vector<const RefNode*> stack{&tree.root};
    while (!stack.empty()) {
      const RefNode* n = stack.back();
      stack.pop_back();
      hides += n->kind == RefNode::Kind::Hide;
      hide_alls += n->kind == RefNode::Kind::HideAll;
      for (const RefNode& c : n->children) stack.push_back(&c);
    }
    expect_matches_reference(expr, tree, coverage);
  }
  // The corpus reaches what it is meant to cover.
  EXPECT_GT(coverage.joint_moves_3, 0u);
  EXPECT_GT(hides, 0u);
  EXPECT_GT(hide_alls, 0u);
  EXPECT_GT(coverage.total_states, 5000u);

  // The random trees use four actions; the ring's 72 actions (tau and
  // a0..a70) need more than one 64-bit word per action mask.
  SCOPED_TRACE("ring");
  auto actions = std::make_shared<ActionTable>();
  RefTree tree;
  const CompositionExpr ring = ring_tree(71, actions, tree);
  ASSERT_GT(actions->size(), 65u);
  OracleCoverage ring_coverage;
  expect_matches_reference(ring, tree, ring_coverage);
  EXPECT_GT(ring_coverage.total_states, 4 * 2000u);
}

/// The first seed whose product has at least @p min_states states.
std::pair<CompositionExpr, std::size_t> tree_with_states(std::size_t min_states) {
  for (std::uint64_t seed = 0;; ++seed) {
    Rng rng(seed);
    auto actions = std::make_shared<ActionTable>();
    RefTree tree;
    CompositionExpr expr = random_tree(rng, actions, 4, tree, tree.root);
    const std::size_t n = expr.explore().num_states();
    if (n >= min_states) return {std::move(expr), n};
  }
}

TEST(ComposeOracle, StateLimitStopsMidExploration) {
  const auto [expr, n] = tree_with_states(40);
  ExploreOptions options;
  options.max_states = n;
  EXPECT_EQ(expr.explore(options).num_states(), n);
  options.max_states = n - 1;
  EXPECT_THROW(expr.explore(options), ModelError);
  options.max_states = n / 2;
  EXPECT_THROW(expr.explore(options), ModelError);
}

TEST(ComposeOracle, GuardStopsMidExploration) {
  const auto [expr, n] = tree_with_states(40);
  RunGuard guard;
  guard.cancel_after_polls(n / 2);  // one poll per expanded state
  ExploreOptions options;
  options.guard = &guard;
  try {
    expr.explore(options);
    FAIL() << "a cancelled exploration returned";
  } catch (const BudgetError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Cancelled);
  }
  RunGuard generous;
  generous.cancel_after_polls(n + 1);
  options.guard = &generous;
  EXPECT_EQ(expr.explore(options).num_states(), n);
}

// --------------------------------------- pinned shipped-model products
//
// Product and quotient sizes and digests of every shipped model.  A change
// to state order, transition order, names or rates anywhere in
// build/lower -> explore -> minimize shows here.

/// FNV-1a over little-endian words and length-prefixed names.
class Fnv {
 public:
  void word(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(x >> (8 * i)));
  }
  void text(const std::string& s) {
    word(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t imc_digest(const Imc& m) {
  Fnv h;
  h.word(m.num_states());
  h.word(m.initial());
  for (StateId s = 0; s < m.num_states(); ++s) h.text(m.state_name(s));
  for (const LtsTransition& t : m.interactive_transitions()) {
    h.word(t.from);
    h.text(m.actions().name(t.action));
    h.word(t.to);
  }
  // Parallel Markov edges (same ends) tie in the Imc's order; hashing them
  // by rate as well keeps the digest independent of how a sort breaks ties.
  std::vector<std::tuple<StateId, StateId, std::uint64_t>> markov;
  for (const MarkovTransition& t : m.markov_transitions()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t.rate, sizeof bits);
    markov.emplace_back(t.from, t.to, bits);
  }
  std::sort(markov.begin(), markov.end());
  for (const auto& [from, to, bits] : markov) {
    h.word(from);
    h.word(bits);
    h.word(to);
  }
  return h.value();
}

struct PinnedModel {
  const char* file;
  std::size_t states, interactive, markov;
  std::size_t quotient_states, quotient_interactive, quotient_markov;
  std::uint64_t digest, quotient_digest;
};

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ComposePinned, ShippedModelsExploreAndMinimizeUnchanged) {
  static const PinnedModel kPinned[] = {
      {"erlang_job_shop.uni", 57, 24, 74, 57, 24, 73, 0xd1d44fcbefd7edecull, 0x72cb48aacbf462c8ull},
      {"ftwc.uni", 2822, 2688, 6286, 2758, 2624, 2248, 0xf45dab1fb60311c1ull, 0xab52b17b87150a47ull},
      {"quickstart.uni", 15, 10, 20, 15, 10, 13, 0x478655ec9c853ca1ull, 0xeda23b7eb5a88074ull},
      {"and2.dft", 9, 5, 8, 5, 1, 7, 0x6bd6c507fd7ce84cull, 0x7d641f523c9f52b3ull},
      {"cas.dft", 3976, 4088, 3850, 20, 1, 70, 0x9eb94c2088176c49ull, 0x0515fd0091ee4068ull},
      {"fdep_pand.dft", 31, 27, 21, 6, 3, 7, 0xd494ff93f54a42a8ull, 0x90c24fe0df9d31d1ull},
      {"pand.dft", 10, 5, 10, 5, 1, 6, 0xf077f0d86a1a3e64ull, 0x581cc2bd970a7e57ull},
      {"spare_cold.dft", 7, 4, 6, 4, 1, 5, 0xa137248f7c846e94ull, 0x22395fb8c7387617ull},
      {"spare_warm.dft", 10, 6, 9, 4, 1, 5, 0xc339e64ee0e72cf5ull, 0x4e96567eef7c768full},
      {"vot23.dft", 23, 15, 24, 4, 1, 4, 0xf61a11fa948a11acull, 0x82eacfacc447f98aull},
  };
  // Every shipped model is pinned.
  std::set<std::string> shipped, pinned;
  for (const char* dir : {UNICON_MODELS_DIR, UNICON_DFT_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string ext = entry.path().extension().string();
      if (ext == ".uni" || ext == ".dft") shipped.insert(entry.path().filename().string());
    }
  }
  for (const PinnedModel& p : kPinned) pinned.insert(p.file);
  EXPECT_EQ(shipped, pinned);

  for (const PinnedModel& p : kPinned) {
    SCOPED_TRACE(p.file);
    const std::string file = p.file;
    const bool is_dft = file.ends_with(".dft");
    const std::filesystem::path path =
        std::filesystem::path(is_dft ? UNICON_DFT_DIR : UNICON_MODELS_DIR) / file;
    const lang::BuiltModel built =
        is_dft ? dft::lower_dft(dft::parse_and_check_dft(read_text(path), file))
               : lang::build_model(lang::parse_and_check(read_text(path), file));
    const lang::BuiltModel minimized = lang::minimize_model(built);
    EXPECT_EQ(built.system.num_states(), p.states);
    EXPECT_EQ(built.system.num_interactive_transitions(), p.interactive);
    EXPECT_EQ(built.system.num_markov_transitions(), p.markov);
    EXPECT_EQ(minimized.system.num_states(), p.quotient_states);
    EXPECT_EQ(minimized.system.num_interactive_transitions(), p.quotient_interactive);
    EXPECT_EQ(minimized.system.num_markov_transitions(), p.quotient_markov);
    EXPECT_EQ(imc_digest(built.system), p.digest);
    EXPECT_EQ(imc_digest(minimized.system), p.quotient_digest);
  }
}

}  // namespace
}  // namespace unicon
