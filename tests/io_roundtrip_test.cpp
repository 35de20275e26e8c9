// Property tests for the io layer: serialization must be canonical, i.e.
// write -> read -> write reproduces the first serialization byte for byte.
// The builders stable-sort and merge transitions, so any model that went
// through a builder once serializes identically after a round trip.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "io/tra.hpp"
#include "support/rng.hpp"
#include "testing/generate.hpp"

namespace unicon {
namespace {

using testing::RandomCtmcConfig;
using testing::RandomCtmdpConfig;
using testing::RandomImcConfig;
using testing::random_ctmc;
using testing::random_goal;
using testing::random_uniform_ctmdp;
using testing::random_uniform_imc;

template <typename Model, typename Write, typename Read>
void expect_roundtrip(const Model& model, Write write, Read read, const std::string& what) {
  // One initial round trip normalizes action interning to file order; after
  // that, write -> read -> write must be byte-identical.
  std::ostringstream raw;
  write(raw, model);
  std::istringstream raw_in(raw.str());
  const Model normalized = read(raw_in);

  std::ostringstream first;
  write(first, normalized);
  std::istringstream in(first.str());
  const Model reloaded = read(in);
  std::ostringstream second;
  write(second, reloaded);
  EXPECT_EQ(first.str(), second.str()) << what << " round trip is not byte-identical";
}

TEST(IoRoundtrip, RandomCtmcsAreByteStable) {
  Rng rng(2024);
  for (int i = 0; i < 25; ++i) {
    RandomCtmcConfig config;
    config.num_states = 2 + rng.next_below(20);
    const Ctmc chain = random_ctmc(rng, config);
    expect_roundtrip(chain, io::write_ctmc, io::read_ctmc, "ctmc #" + std::to_string(i));
  }
}

TEST(IoRoundtrip, RandomCtmdpsAreByteStable) {
  Rng rng(2025);
  for (int i = 0; i < 25; ++i) {
    RandomCtmdpConfig config;
    config.num_states = 2 + rng.next_below(15);
    const Ctmdp model = random_uniform_ctmdp(rng, config);
    expect_roundtrip(model, io::write_ctmdp, io::read_ctmdp, "ctmdp #" + std::to_string(i));
  }
}

TEST(IoRoundtrip, RandomImcsAreByteStable) {
  Rng rng(2026);
  for (int i = 0; i < 25; ++i) {
    RandomImcConfig config;
    config.num_states = 2 + rng.next_below(15);
    const Imc m = random_uniform_imc(rng, config);
    expect_roundtrip(m, io::write_imc, io::read_imc, "imc #" + std::to_string(i));
  }
}

TEST(IoRoundtrip, GoalMasksAreByteStable) {
  Rng rng(2027);
  for (int i = 0; i < 25; ++i) {
    const std::size_t n = 1 + rng.next_below(40);
    const BitVector goal = random_goal(rng, n, 0.3);
    std::ostringstream first;
    io::write_goal(first, goal);
    std::istringstream in(first.str());
    const BitVector reloaded = io::read_goal(in, n);
    EXPECT_EQ(goal, reloaded);
    std::ostringstream second;
    io::write_goal(second, reloaded);
    EXPECT_EQ(first.str(), second.str());
  }
}

TEST(IoRoundtrip, ExtremeRatesSurviveExactly) {
  // setprecision(17) must reproduce doubles exactly, including values that
  // do not have short decimal representations.
  CtmcBuilder b(3);
  b.set_initial(0);
  b.add_transition(0, 1.0 / 3.0, 1);
  b.add_transition(0, 1e-17, 2);
  b.add_transition(1, 12345.678901234567, 2);
  const Ctmc chain = b.build();
  expect_roundtrip(chain, io::write_ctmc, io::read_ctmc, "extreme rates");
  std::ostringstream out;
  io::write_ctmc(out, chain);
  std::istringstream in(out.str());
  const Ctmc reloaded = io::read_ctmc(in);
  EXPECT_EQ(reloaded.out(0)[0].value, 1.0 / 3.0);
  EXPECT_EQ(reloaded.out(0)[1].value, 1e-17);
  EXPECT_EQ(reloaded.out(1)[0].value, 12345.678901234567);
}

TEST(IoRoundtrip, SingleStateModels) {
  CtmcBuilder cb(1);
  cb.ensure_states(1);
  cb.set_initial(0);
  expect_roundtrip(cb.build(), io::write_ctmc, io::read_ctmc, "single-state ctmc");

  CtmdpBuilder db;
  db.ensure_states(1);
  db.set_initial(0);
  expect_roundtrip(db.build(), io::write_ctmdp, io::read_ctmdp, "single-state ctmdp");

  ImcBuilder ib;
  ib.add_state("only");
  ib.set_initial(0);
  expect_roundtrip(ib.build(), io::write_imc, io::read_imc, "single-state imc");
}

TEST(IoRoundtrip, EmptyTransitionModels) {
  // Several states, no transitions at all.
  CtmcBuilder cb(4);
  cb.ensure_states(4);
  cb.set_initial(2);
  const Ctmc chain = cb.build();
  expect_roundtrip(chain, io::write_ctmc, io::read_ctmc, "transitionless ctmc");

  CtmdpBuilder db;
  db.ensure_states(4);
  db.set_initial(1);
  const Ctmdp model = db.build();
  EXPECT_EQ(model.num_transitions(), 0u);
  expect_roundtrip(model, io::write_ctmdp, io::read_ctmdp, "transitionless ctmdp");

  std::ostringstream out;
  io::write_goal(out, std::vector<bool>(4, false));
  std::istringstream in(out.str());
  EXPECT_EQ(io::read_goal(in, 4), std::vector<bool>(4, false));
}

}  // namespace
}  // namespace unicon
