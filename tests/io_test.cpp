#include <gtest/gtest.h>

#include <sstream>

#include "core/transform.hpp"
#include "ctmdp/reachability.hpp"
#include "ftwc/direct.hpp"
#include "io/tra.hpp"
#include "support/errors.hpp"

namespace unicon {
namespace {

Ctmc sample_ctmc() {
  CtmcBuilder b(3);
  b.ensure_states(3);
  b.set_initial(1);
  b.add_transition(0, 1.5, 1);
  b.add_transition(1, 0.25, 2);
  b.add_transition(2, 3.0, 0);
  b.add_transition(2, 1.0, 2);
  return b.build();
}

Ctmdp sample_ctmdp() {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.set_initial(0);
  const std::vector<Action> word{b.intern_action("r_a"), b.intern_action("g_b")};
  b.begin_transition(0, b.intern_word(word));
  b.add_rate(1, 2.0);
  b.begin_transition(0, "tau");
  b.add_rate(0, 1.0);
  b.add_rate(1, 1.0);
  b.begin_transition(1, "stay");
  b.add_rate(1, 2.0);
  return b.build();
}

TEST(TraIo, CtmcRoundTrip) {
  const Ctmc original = sample_ctmc();
  std::stringstream buffer;
  io::write_ctmc(buffer, original);
  const Ctmc loaded = io::read_ctmc(buffer);
  ASSERT_EQ(loaded.num_states(), original.num_states());
  ASSERT_EQ(loaded.num_transitions(), original.num_transitions());
  EXPECT_EQ(loaded.initial(), original.initial());
  for (StateId s = 0; s < original.num_states(); ++s) {
    EXPECT_DOUBLE_EQ(loaded.exit_rate(s), original.exit_rate(s));
  }
}

TEST(TraIo, CtmdpRoundTrip) {
  const Ctmdp original = sample_ctmdp();
  std::stringstream buffer;
  io::write_ctmdp(buffer, original);
  const Ctmdp loaded = io::read_ctmdp(buffer);
  ASSERT_EQ(loaded.num_states(), original.num_states());
  ASSERT_EQ(loaded.num_transitions(), original.num_transitions());
  for (std::uint64_t t = 0; t < original.num_transitions(); ++t) {
    EXPECT_EQ(loaded.source(t), original.source(t));
    EXPECT_DOUBLE_EQ(loaded.exit_rate(t), original.exit_rate(t));
    EXPECT_EQ(loaded.words().str(loaded.label(t), loaded.actions()),
              original.words().str(original.label(t), original.actions()));
  }
}

TEST(TraIo, ImcRoundTrip) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_state();
  b.set_initial(1);
  b.add_interactive(0, "grab", 1);
  b.add_interactive(1, kTau, 2);
  b.add_markov(2, 3.5, 0);
  b.add_markov(2, 0.5, 2);
  const Imc original = b.build();

  std::stringstream buffer;
  io::write_imc(buffer, original);
  const Imc loaded = io::read_imc(buffer);
  ASSERT_EQ(loaded.num_states(), original.num_states());
  EXPECT_EQ(loaded.initial(), original.initial());
  EXPECT_EQ(loaded.num_interactive_transitions(), original.num_interactive_transitions());
  EXPECT_EQ(loaded.num_markov_transitions(), original.num_markov_transitions());
  EXPECT_TRUE(loaded.has_tau(1));
  EXPECT_DOUBLE_EQ(loaded.exit_rate(2), 4.0);
  EXPECT_EQ(loaded.actions().name(loaded.out_interactive(0)[0].action), "grab");
}

TEST(TraIo, ImcMissingEndThrows) {
  std::stringstream buffer("STATES 1\nINITIAL 0\n");
  EXPECT_THROW(io::read_imc(buffer), ParseError);
}

TEST(TraIo, ImcBadLineKindThrows) {
  std::stringstream buffer("STATES 1\nINITIAL 0\nX 0 1 0\nEND\n");
  EXPECT_THROW(io::read_imc(buffer), ParseError);
}

TEST(TraIo, GoalRoundTrip) {
  const std::vector<bool> goal{false, true, true, false};
  std::stringstream buffer;
  io::write_goal(buffer, goal);
  EXPECT_EQ(io::read_goal(buffer, 4), goal);
}

TEST(TraIo, GoalOutOfRangeThrows) {
  std::stringstream buffer("7 goal\n");
  EXPECT_THROW(io::read_goal(buffer, 4), ParseError);
}

TEST(TraIo, BadHeaderThrows) {
  std::stringstream buffer("NOTSTATES 2\n");
  EXPECT_THROW(io::read_ctmc(buffer), ParseError);
}

TEST(TraIo, TruncatedBodyThrows) {
  std::stringstream buffer("STATES 2\nTRANSITIONS 2\nINITIAL 0\n0 1 1.0\n");
  EXPECT_THROW(io::read_ctmc(buffer), ParseError);
}

TEST(TraIo, MalformedInputsRejectedWithLineNumbers) {
  enum class Format { Ctmc, Imc, Ctmdp, Labels };
  struct Case {
    const char* name;
    Format format;
    const char* text;
    const char* needle;  // expected substring of the message
    std::size_t line;    // expected reported line (0 = don't check)
  };
  const Case cases[] = {
      {"ctmc nan rate", Format::Ctmc, "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 1 nan\n",
       "not finite", 4},
      {"ctmc inf rate", Format::Ctmc, "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 1 inf\n",
       "not finite", 4},
      {"ctmc negative rate", Format::Ctmc, "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 1 -2.0\n",
       "must be positive", 4},
      {"ctmc zero rate", Format::Ctmc, "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 1 0.0\n",
       "must be positive", 4},
      {"ctmc duplicate transition", Format::Ctmc,
       "STATES 2\nTRANSITIONS 2\nINITIAL 0\n0 1 1.0\n0 1 2.0\n", "duplicate transition", 5},
      {"ctmc target out of range", Format::Ctmc, "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 5 1.0\n",
       "out of range", 4},
      {"ctmc initial out of range", Format::Ctmc, "STATES 2\nTRANSITIONS 0\nINITIAL 7\n",
       "out of range", 3},
      {"ctmc rate not a number", Format::Ctmc, "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 1 fast\n",
       "bad rate", 4},
      {"ctmc garbage state id", Format::Ctmc, "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 x1 1.0\n",
       "bad target state", 4},
      {"ctmc truncated body", Format::Ctmc, "STATES 2\nTRANSITIONS 2\nINITIAL 0\n0 1 1.0\n",
       "unexpected end of file", 0},
      {"imc markov nan rate", Format::Imc, "STATES 2\nINITIAL 0\nM 0 nan 1\nEND\n", "not finite",
       3},
      {"imc state out of range", Format::Imc, "STATES 2\nINITIAL 0\nI 0 a 9\nEND\n",
       "out of range", 3},
      {"ctmdp inf rate", Format::Ctmdp,
       "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 tau 1 1 inf\n", "not finite", 4},
      {"ctmdp duplicate rate target", Format::Ctmdp,
       "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 tau 2 1 1.0 1 2.0\n", "duplicate rate entry", 4},
      {"ctmdp target out of range", Format::Ctmdp,
       "STATES 2\nTRANSITIONS 1\nINITIAL 0\n0 tau 1 9 1.0\n", "out of range", 4},
      {"labels state out of range", Format::Labels, "0 goal\n\n9 goal\n", "out of range", 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::stringstream in(c.text);
    try {
      switch (c.format) {
        case Format::Ctmc:
          io::read_ctmc(in);
          break;
        case Format::Imc:
          io::read_imc(in);
          break;
        case Format::Ctmdp:
          io::read_ctmdp(in);
          break;
        case Format::Labels:
          io::read_labels(in, 4);
          break;
      }
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), ErrorCode::Parse);
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos) << e.what();
      if (c.line != 0) {
        EXPECT_EQ(e.line(), c.line);
      }
    }
  }
}

TEST(TraIo, FtwcCtmdpRoundTripPreservesAnalysis) {
  ftwc::Parameters params;
  params.n = 1;
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);

  std::stringstream buffer;
  io::write_ctmdp(buffer, transformed.ctmdp);
  const Ctmdp loaded = io::read_ctmdp(buffer);

  const auto before = timed_reachability(transformed.ctmdp, transformed.goal, 100.0);
  const auto after = timed_reachability(loaded, transformed.goal, 100.0);
  EXPECT_NEAR(before.values[transformed.ctmdp.initial()], after.values[loaded.initial()], 1e-9);
}

TEST(TraIo, FileHelpersWorkAndThrowOnBadPaths) {
  const Ctmc c = sample_ctmc();
  const std::string path = ::testing::TempDir() + "/unicon_io_test.tra";
  io::save_ctmc(path, c);
  const Ctmc loaded = io::load_ctmc(path);
  EXPECT_EQ(loaded.num_states(), c.num_states());
  EXPECT_THROW(io::load_ctmc("/nonexistent/dir/x.tra"), ParseError);
  EXPECT_THROW(io::save_ctmc("/nonexistent/dir/x.tra", c), ParseError);
}

}  // namespace
}  // namespace unicon
