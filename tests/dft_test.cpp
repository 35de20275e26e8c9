// Dynamic fault trees end to end: the malformed-Galileo table (every
// rejection carries its 1-based line), closed-form gate goldens against the
// full lower -> minimize -> transform -> Algorithm 1 pipeline, the shipped
// zoo differentially checked against the brute-force oracle, cross-backend
// agreement, genuine min < max nondeterminism, and the scheduler-artifact
// round trip (export -> JSON -> re-read -> replay reproduces the optimal
// value bit-identically).
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "ctmdp/reachability.hpp"
#include "ctmdp/scheduler.hpp"
#include "dft/lower.hpp"
#include "dft/parser.hpp"
#include "dft/sema.hpp"
#include "io/scheduler_json.hpp"
#include "lang/build.hpp"
#include "lang/diagnostics.hpp"
#include "support/errors.hpp"
#include "support/run_guard.hpp"
#include "testing/dft_oracle.hpp"
#include "test_util.hpp"

using namespace unicon;
// unicon::testing clashes with gtest's ::testing under the using-directive.
namespace fuzzdft = unicon::testing;

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct Pipeline {
  UimcAnalysisResult result;
  std::size_t raw_states = 0;
  std::size_t minimized_states = 0;
};

// Parse -> check -> lower -> (optionally) minimize -> analyze, serial
// backend so values are reproducible bit-for-bit.
Pipeline run_dft(const std::string& source, double t, Objective objective, double eps = 1e-10,
                 bool minimize = true, bool extract_scheduler = false,
                 Backend backend = Backend::Serial, unsigned threads = 1) {
  const dft::CheckedDft checked = dft::parse_and_check_dft(source);
  lang::BuiltModel built = dft::lower_dft(checked);
  Pipeline out;
  out.raw_states = built.system.num_states();
  if (minimize) built = lang::minimize_model(built);
  out.minimized_states = built.system.num_states();
  UimcAnalysisOptions options;
  options.reachability.epsilon = eps;
  options.reachability.objective = objective;
  options.reachability.backend = backend;
  options.reachability.threads = threads;
  options.reachability.extract_scheduler = extract_scheduler;
  out.result = analyze_timed_reachability(built.system, built.mask("failed"), t, options);
  return out;
}

double unreliability(const std::string& source, double t, Objective objective) {
  return run_dft(source, t, objective).result.value;
}

// ---------------------------------------------------------------------------
// Malformed inputs: one entry per rule of dft/sema.hpp (plus lexer and
// parser rejections), each reported with category and exact 1-based line.

struct BadDft {
  const char* name;
  const char* source;
  lang::Diagnostic::Category category;
  std::uint32_t line;
  const char* message_part;
};

const BadDft kBadDfts[] = {
    {"unexpected_character", "toplevel \"a\";\n$\n", lang::Diagnostic::Category::Lex, 2,
     "unexpected character"},
    {"unterminated_quoted_name", "toplevel \"a\";\n\"a lambda=1;\n",
     lang::Diagnostic::Category::Lex, 2, "unterminated quoted name"},
    {"malformed_number", "toplevel \"a\";\n\"a\" lambda=1.2.3;\n",
     lang::Diagnostic::Category::Lex, 2, "malformed number"},
    {"missing_toplevel", "\"a\" lambda=1;\n", lang::Diagnostic::Category::Parse, 1,
     "expected 'toplevel' declaration first"},
    {"duplicate_toplevel", "toplevel \"a\";\ntoplevel \"a\";\n\"a\" lambda=1;\n",
     lang::Diagnostic::Category::Parse, 2, "duplicate 'toplevel'"},
    {"unknown_gate_type", "toplevel \"t\";\n\"t\" nand \"a\" \"b\";\n\"a\" lambda=1;\n\"b\" "
                          "lambda=1;\n",
     lang::Diagnostic::Category::Parse, 2, "expected gate type"},
    {"vot_zero_threshold", "toplevel \"t\";\n\"t\" 0of2 \"a\" \"b\";\n\"a\" lambda=1;\n\"b\" "
                           "lambda=1;\n",
     lang::Diagnostic::Category::Parse, 2, "must satisfy 1 <= k <= n"},
    {"vot_arity_mismatch", "toplevel \"t\";\n\"t\" 2of3 \"a\" \"b\";\n\"a\" lambda=1;\n\"b\" "
                           "lambda=1;\n",
     lang::Diagnostic::Category::Parse, 2, "declares 3 inputs but lists 2"},
    {"duplicate_lambda", "toplevel \"a\";\n\"a\" lambda=1 lambda=2;\n",
     lang::Diagnostic::Category::Parse, 2, "duplicate lambda"},
    {"duplicate_element", "toplevel \"a\";\n\"a\" lambda=1;\n\"a\" lambda=2;\n",
     lang::Diagnostic::Category::Semantic, 3, "duplicate element name"},
    {"undeclared_toplevel", "toplevel \"ghost\";\n\"a\" lambda=1;\n",
     lang::Diagnostic::Category::Semantic, 1, "is not declared"},
    {"undeclared_child", "toplevel \"t\";\n\"t\" and \"a\" \"ghost\";\n\"a\" lambda=1;\n",
     lang::Diagnostic::Category::Semantic, 2, "references undeclared element 'ghost'"},
    {"duplicate_child", "toplevel \"t\";\n\"t\" and \"a\" \"a\";\n\"a\" lambda=1;\n",
     lang::Diagnostic::Category::Semantic, 2, "lists child 'a' twice"},
    {"missing_lambda", "toplevel \"a\";\n\"a\" dorm=0.5;\n", lang::Diagnostic::Category::Semantic,
     2, "has no failure rate"},
    {"nonpositive_lambda", "toplevel \"a\";\n\"a\" lambda=0;\n",
     lang::Diagnostic::Category::Semantic, 2, "finite failure rate > 0"},
    {"dorm_out_of_range", "toplevel \"t\";\n\"t\" wsp \"p\" \"s\";\n\"p\" lambda=1;\n\"s\" "
                          "lambda=1 dorm=1.5;\n",
     lang::Diagnostic::Category::Semantic, 4, "must lie in [0, 1]"},
    {"dorm_without_spare_gate", "toplevel \"a\";\n\"a\" lambda=1 dorm=0.5;\n",
     lang::Diagnostic::Category::Semantic, 2, "is not the spare of any gate"},
    {"cycle", "toplevel \"t\";\n\"t\" and \"u\" \"a\";\n\"u\" and \"t\" \"a\";\n\"a\" "
              "lambda=1;\n",
     lang::Diagnostic::Category::Semantic, 3, "cycle through"},
    {"spare_gate_arity", "toplevel \"t\";\n\"t\" csp \"p\";\n\"p\" lambda=1;\n",
     lang::Diagnostic::Category::Semantic, 2, "needs a primary and at least one spare"},
    {"spare_shared_by_two_gates",
     "toplevel \"t\";\n\"t\" and \"g1\" \"g2\";\n\"g1\" csp \"p1\" \"s\";\n\"g2\" csp \"p2\" "
     "\"s\";\n\"p1\" lambda=1;\n\"p2\" lambda=1;\n\"s\" lambda=1;\n",
     lang::Diagnostic::Category::Semantic, 3, "cannot also be the input of another gate"},
    {"cold_spare_with_dorm",
     "toplevel \"t\";\n\"t\" csp \"p\" \"s\";\n\"p\" lambda=1;\n\"s\" lambda=1 dorm=0.5;\n",
     lang::Diagnostic::Category::Semantic, 4, "cold spare 's' must not declare dorm != 0"},
    {"warm_spare_without_dorm",
     "toplevel \"t\";\n\"t\" wsp \"p\" \"s\";\n\"p\" lambda=1;\n\"s\" lambda=1;\n",
     lang::Diagnostic::Category::Semantic, 4, "needs an explicit dorm"},
    {"fdep_dependent_not_basic",
     "toplevel \"t\";\n\"t\" and \"a\" \"b\";\n\"g\" and \"a\" \"b\";\n\"a\" lambda=1;\n\"b\" "
     "lambda=1;\n\"d\" fdep \"a\" \"g\";\n",
     lang::Diagnostic::Category::Semantic, 6, "must be a basic event"},
    {"fdep_as_gate_input",
     "toplevel \"t\";\n\"t\" and \"d\" \"b\";\n\"a\" lambda=1;\n\"b\" lambda=1;\n\"d\" fdep "
     "\"a\" \"b\";\n",
     lang::Diagnostic::Category::Semantic, 5, "cannot be the input of a gate"},
    {"disconnected_element",
     "toplevel \"t\";\n\"t\" and \"a\" \"b\";\n\"a\" lambda=1;\n\"b\" lambda=1;\n\"c\" "
     "lambda=1;\n",
     lang::Diagnostic::Category::Semantic, 5, "is not connected to the toplevel"},
};

TEST(DftDiagnostics, MalformedInputsReportExactLines) {
  for (const BadDft& c : kBadDfts) {
    SCOPED_TRACE(c.name);
    bool threw = false;
    try {
      (void)dft::parse_and_check_dft(c.source, "bad.dft");
    } catch (const lang::LangError& e) {
      threw = true;
      const lang::Diagnostic& d = e.diagnostic();
      EXPECT_EQ(static_cast<int>(d.category), static_cast<int>(c.category))
          << lang::category_name(d.category) << " — " << d.message;
      EXPECT_EQ(d.loc.line, c.line) << d.message;
      EXPECT_NE(d.message.find(c.message_part), std::string::npos) << d.message;
      // Rendered as file:line:col: category: message, so CLI users can jump
      // straight to the offending element.
      const std::string prefix = "bad.dft:" + std::to_string(c.line) + ":";
      EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u) << e.what();
    }
    EXPECT_TRUE(threw) << "input unexpectedly accepted";
  }
}

TEST(DftParser, GalileoPrintIsCanonical) {
  const std::string spelled =
      "toplevel \"top\";\n"
      "\"top\" pand \"a\" \"b\";\n"
      "\"a\" lambda=1.0;\n\"b\" lambda=1.0;\n\"t\" lambda=5.0;\n"
      "\"dep\" fdep \"t\" \"a\" \"b\";\n";
  const std::string respelled =
      "/* same tree */ toplevel \"top\";\n"
      "  \"top\" pand \"a\" \"b\";  // priority-and\n"
      "\"a\" lambda=1;\n\"b\" lambda=1;\n\"t\" lambda=5;\n"
      "\"dep\" fdep \"t\" \"a\" \"b\";\n";
  const std::string canonical = dft::to_galileo(dft::parse_dft(spelled));
  EXPECT_EQ(canonical, dft::to_galileo(dft::parse_dft(respelled)));
  // The canonical print re-parses to itself (fixpoint).
  EXPECT_EQ(canonical, dft::to_galileo(dft::parse_dft(canonical)));
}

// ---------------------------------------------------------------------------
// Closed-form gate goldens through the full production pipeline.

constexpr double kEps = 1e-10;
constexpr double kTol = 1e-8;

TEST(DftGolden, AndOfTwoExponentials) {
  const std::string source =
      "toplevel \"t\";\n\"t\" and \"a\" \"b\";\n\"a\" lambda=1;\n\"b\" lambda=2;\n";
  for (const double t : {0.3, 1.0, 2.5}) {
    const double expected = (1 - std::exp(-t)) * (1 - std::exp(-2 * t));
    EXPECT_NEAR(unreliability(source, t, Objective::Maximize), expected, kTol) << "t=" << t;
    // A static gate has no scheduler choices: inf == sup.
    EXPECT_NEAR(unreliability(source, t, Objective::Minimize), expected, kTol) << "t=" << t;
  }
}

TEST(DftGolden, OrIsMinimumOfFailureTimes) {
  const std::string source =
      "toplevel \"t\";\n\"t\" or \"a\" \"b\";\n\"a\" lambda=1;\n\"b\" lambda=2;\n";
  for (const double t : {0.3, 1.0, 2.5}) {
    const double expected = 1 - std::exp(-3 * t);
    EXPECT_NEAR(unreliability(source, t, Objective::Maximize), expected, kTol) << "t=" << t;
  }
}

TEST(DftGolden, VotingTwoOfThree) {
  const std::string source =
      "toplevel \"t\";\n\"t\" 2of3 \"a\" \"b\" \"c\";\n"
      "\"a\" lambda=1;\n\"b\" lambda=1;\n\"c\" lambda=1;\n";
  for (const double t : {0.5, 1.0}) {
    const double p = 1 - std::exp(-t);
    const double expected = 3 * p * p - 2 * p * p * p;
    EXPECT_NEAR(unreliability(source, t, Objective::Maximize), expected, kTol) << "t=" << t;
  }
}

TEST(DftGolden, PriorityAndOrdersFailures) {
  // P(A fails before B, both within t) for A ~ Exp(l1), B ~ Exp(l2).
  const double l1 = 1.0, l2 = 2.0;
  const std::string source =
      "toplevel \"t\";\n\"t\" pand \"a\" \"b\";\n\"a\" lambda=1;\n\"b\" lambda=2;\n";
  for (const double t : {0.5, 1.0, 2.0}) {
    const double expected = l1 / (l1 + l2) * (1 - std::exp(-(l1 + l2) * t)) -
                            std::exp(-l2 * t) * (1 - std::exp(-l1 * t));
    EXPECT_NEAR(unreliability(source, t, Objective::Maximize), expected, kTol) << "t=" << t;
    EXPECT_NEAR(unreliability(source, t, Objective::Minimize), expected, kTol) << "t=" << t;
  }
}

TEST(DftGolden, ColdSpareIsErlang) {
  const std::string source =
      "toplevel \"t\";\n\"t\" csp \"p\" \"s\";\n\"p\" lambda=1;\n\"s\" lambda=1;\n";
  for (const double t : {0.5, 1.0, 3.0}) {
    const double expected = 1 - std::exp(-t) * (1 + t);  // Erlang(2, 1)
    EXPECT_NEAR(unreliability(source, t, Objective::Maximize), expected, kTol) << "t=" << t;
  }
}

TEST(DftGolden, WarmSpareMatchesHandSolvedChain) {
  // Primary at rate 1, spare dormant at 0.5 and active at 1: the induced
  // 4-state chain solves to U(t) = 1 - 3 e^{-t} + 2 e^{-1.5 t}.
  const std::string source =
      "toplevel \"t\";\n\"t\" wsp \"p\" \"s\";\n\"p\" lambda=1;\n\"s\" lambda=1 dorm=0.5;\n";
  for (const double t : {0.5, 1.0, 2.0}) {
    const double expected = 1 - 3 * std::exp(-t) + 2 * std::exp(-1.5 * t);
    EXPECT_NEAR(unreliability(source, t, Objective::Maximize), expected, kTol) << "t=" << t;
    EXPECT_NEAR(unreliability(source, t, Objective::Minimize), expected, kTol) << "t=" << t;
  }
}

TEST(DftGolden, HotSpareBehavesLikeAnd) {
  const std::string source =
      "toplevel \"t\";\n\"t\" hsp \"p\" \"s\";\n\"p\" lambda=1;\n\"s\" lambda=2;\n";
  const double expected = (1 - std::exp(-1.0)) * (1 - std::exp(-2.0));
  EXPECT_NEAR(unreliability(source, 1.0, Objective::Maximize), expected, kTol);
}

TEST(DftGolden, FdepForcesDependentsOnTrigger) {
  // top = and(a, b) with fdep(t -> a, b): top fails once the trigger fires
  // or both leaves fail on their own.
  const std::string source =
      "toplevel \"top\";\n\"top\" and \"a\" \"b\";\n"
      "\"a\" lambda=1;\n\"b\" lambda=1;\n\"t\" lambda=2;\n"
      "\"dep\" fdep \"t\" \"a\" \"b\";\n";
  // By inclusion-exclusion over the trigger: U = P(T<=t) + P(T>t)*P(A<=t)P(B<=t)
  // is wrong (A, B can fail before T); instead condition on the trigger time.
  // Easier: failure time is min(T, max(A, B)), all independent.
  // P(min(T, max(A,B)) <= t) = 1 - P(T > t) P(max(A,B) > t)
  //                          = 1 - e^{-2t} (1 - (1-e^{-t})^2).
  const double t = 1.0;
  const double pmax = (1 - std::exp(-t)) * (1 - std::exp(-t));
  const double expected = 1 - std::exp(-2 * t) * (1 - pmax);
  EXPECT_NEAR(unreliability(source, t, Objective::Maximize), expected, kTol);
  EXPECT_NEAR(unreliability(source, t, Objective::Minimize), expected, kTol);
}

// ---------------------------------------------------------------------------
// Nondeterminism: the showcase tree has genuinely different inf and sup.

TEST(DftNondeterminism, ShowcaseHasStrictSchedulerGap) {
  const std::string source = fuzzdft::dft_nondeterministic_showcase();
  const double sup = unreliability(source, 1.0, Objective::Maximize);
  const double inf = unreliability(source, 1.0, Objective::Minimize);
  EXPECT_LT(inf + 0.5, sup) << "inf=" << inf << " sup=" << sup;
  // Both bounds sandwich the oracle's matching objective.
  const dft::CheckedDft checked = dft::parse_and_check_dft(source);
  EXPECT_NEAR(fuzzdft::dft_oracle_unreliability(checked, 1.0, 1e-12, Objective::Maximize), sup,
              1e-9);
  EXPECT_NEAR(fuzzdft::dft_oracle_unreliability(checked, 1.0, 1e-12, Objective::Minimize), inf,
              1e-9);
}

TEST(DftNondeterminism, MinimizationPreservesBothBounds) {
  const std::string source = fuzzdft::dft_nondeterministic_showcase();
  for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
    const Pipeline minimized = run_dft(source, 1.0, objective, kEps, /*minimize=*/true);
    const Pipeline raw = run_dft(source, 1.0, objective, kEps, /*minimize=*/false);
    EXPECT_LT(minimized.minimized_states, raw.raw_states);
    EXPECT_NEAR(minimized.result.value, raw.result.value, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// The shipped zoo, differentially against the brute-force oracle chain.

TEST(DftZoo, EveryShippedModelAgreesWithTheOracle) {
  const std::filesystem::path dir(UNICON_DFT_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  fuzzdft::DftFuzzConfig config;
  config.time = 1.0;
  config.epsilon = 1e-12;
  config.tolerance = 1e-9;
  config.backend = Backend::Serial;
  std::size_t models = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dft") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::uint64_t checks = 0;
    const std::string failure = fuzzdft::check_dft_source(buffer.str(), config, &checks);
    EXPECT_EQ(failure, "");
    EXPECT_GT(checks, 0u);
    ++models;
  }
  EXPECT_GE(models, 7u) << "zoo unexpectedly small";
}

TEST(DftZoo, LargestModelMinimizesSubstantially) {
  const std::filesystem::path path = std::filesystem::path(UNICON_DFT_DIR) / "cas.dft";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Pipeline p = run_dft(buffer.str(), 1.0, Objective::Maximize);
  EXPECT_GT(p.raw_states, 1000u);
  EXPECT_LT(p.minimized_states * 10, p.raw_states);
  EXPECT_GT(p.result.value, 0.0);
  EXPECT_LT(p.result.value, 1.0);
}

// ---------------------------------------------------------------------------
// Backends and threads.

TEST(DftBackends, SerialAndSimdAgreeAndAreThreadStable) {
  const std::string source = fuzzdft::dft_nondeterministic_showcase();
  for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
    const double serial1 =
        run_dft(source, 1.0, objective, kEps, true, false, Backend::Serial, 1).result.value;
    const double serial2 =
        run_dft(source, 1.0, objective, kEps, true, false, Backend::Serial, 2).result.value;
    const double simd1 =
        run_dft(source, 1.0, objective, kEps, true, false, Backend::Simd, 1).result.value;
    const double simd2 =
        run_dft(source, 1.0, objective, kEps, true, false, Backend::Simd, 2).result.value;
    // Each backend is bit-identical to itself across thread counts; the two
    // backends differ by FP reassociation only.
    EXPECT_EQ(bits(serial1), bits(serial2));
    EXPECT_EQ(bits(simd1), bits(simd2));
    EXPECT_NEAR(serial1, simd1, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Scheduler artifacts: export, JSON round trip, bit-identical replay.

TEST(DftScheduler, ArtifactRoundTripReproducesOptimalValueBitIdentically) {
  const std::string source = fuzzdft::dft_nondeterministic_showcase();
  const double t = 1.0;
  const double eps = 1e-8;
  for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
    SCOPED_TRACE(objective == Objective::Maximize ? "max" : "min");
    const Pipeline p = run_dft(source, t, objective, eps, /*minimize=*/true,
                               /*extract_scheduler=*/true);
    const TimedReachabilityResult& solve = p.result.reachability;
    ASSERT_FALSE(solve.decisions.empty());
    ASSERT_EQ(solve.decisions.size(), solve.iterations_planned);

    const io::SchedulerArtifact artifact =
        io::scheduler_artifact_from_result(solve, objective, t, eps, p.result.value);
    EXPECT_EQ(artifact.states, solve.values.size());
    EXPECT_EQ(artifact.steps, solve.decisions.size());
    EXPECT_EQ(bits(artifact.uniform_rate), bits(solve.uniform_rate));

    // JSON round trip is exact: re-serializing the parsed artifact gives
    // the same bytes, and all tables survive.
    const std::string json = io::scheduler_to_json(artifact);
    const io::SchedulerArtifact back = io::scheduler_from_json(json);
    EXPECT_EQ(io::scheduler_to_json(back), json);
    EXPECT_EQ(back.decisions, artifact.decisions);
    EXPECT_EQ(back.initial_decision, artifact.initial_decision);
    EXPECT_EQ(bits(back.value), bits(artifact.value));

    // Replaying the re-read table through the policy evaluator reproduces
    // the optimizing solve's value at the initial state bit-identically —
    // for the minimizing scheduler too, against the universal goal
    // transfer the min objective solved on.
    const Ctmdp& ctmdp = p.result.transformed.ctmdp;
    const BitVector& goal = objective == Objective::Maximize ? p.result.transformed.goal
                                                             : p.result.transformed.goal_universal;
    TimedReachabilityOptions eval;
    eval.epsilon = eps;
    const TimedReachabilityResult replay =
        evaluate_countdown_scheduler(ctmdp, goal, t, back.scheduler(), eval);
    EXPECT_EQ(bits(replay.values[ctmdp.initial()]), bits(p.result.value));

    // A fixed first-transition scheduler does not beat the optimum.
    std::vector<std::uint64_t> row(solve.values.size(), kNoTransition);
    for (std::size_t s = 0; s < row.size(); ++s) {
      const auto [lo, hi] = ctmdp.transition_range(s);
      if (lo != hi) row[s] = lo;
    }
    std::vector<std::vector<std::uint64_t>> first(solve.decisions.size(), row);
    const TimedReachabilityResult fixed = evaluate_countdown_scheduler(
        ctmdp, goal, t, CountdownScheduler(std::move(first)), eval);
    const double slack = 1e-12;
    if (objective == Objective::Maximize) {
      EXPECT_LE(fixed.values[ctmdp.initial()], p.result.value + slack);
    } else {
      EXPECT_GE(fixed.values[ctmdp.initial()], p.result.value - slack);
    }
  }
}

// Extraction runs the serial reference rows whatever the backend, so the
// artifact of a default-backend solve replays to its own value bit-for-bit
// (the default CLI path: unicon_check dft cas.dft 1 --export-scheduler).
TEST(DftScheduler, ArtifactRoundTripIsBitIdenticalOnEveryBackend) {
  const std::filesystem::path path = std::filesystem::path(UNICON_DFT_DIR) / "cas.dft";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const double t = 1.0;
  const double eps = 1e-6;
  for (const Backend backend : {Backend::Auto, Backend::Simd, Backend::SimdPortable}) {
    std::optional<testutil::ScopedBackendEnv> unset;
    if (backend == Backend::Auto) unset.emplace(nullptr);
    for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
      SCOPED_TRACE(std::string(backend_name(backend)) +
                   (objective == Objective::Maximize ? " max" : " min"));
      const Pipeline p = run_dft(buffer.str(), t, objective, eps, /*minimize=*/true,
                                 /*extract_scheduler=*/true, backend);
      const io::SchedulerArtifact artifact = io::scheduler_artifact_from_result(
          p.result.reachability, objective, t, eps, p.result.value);
      const io::SchedulerArtifact back =
          io::scheduler_from_json(io::scheduler_to_json(artifact));

      const Ctmdp& ctmdp = p.result.transformed.ctmdp;
      const BitVector& goal = objective == Objective::Maximize
                                  ? p.result.transformed.goal
                                  : p.result.transformed.goal_universal;
      TimedReachabilityOptions eval;
      eval.epsilon = eps;
      const TimedReachabilityResult replay =
          evaluate_countdown_scheduler(ctmdp, goal, t, back.scheduler(), eval);
      EXPECT_EQ(bits(replay.values[ctmdp.initial()]), bits(artifact.value));
    }
  }
}

// A guard stop ends the sweep before it reaches step 1, so the decision rows
// below its stop step stay empty: no artifact can be made of such a table
// (the CLI skips the export of a solve that did not converge).
TEST(DftScheduler, GuardStoppedTableIsNotAnArtifact) {
  const std::filesystem::path path = std::filesystem::path(UNICON_DFT_DIR) / "cas.dft";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream source;
  source << in.rdbuf();
  const lang::BuiltModel built =
      lang::minimize_model(dft::lower_dft(dft::parse_and_check_dft(source.str())));
  const double t = 100.0;
  const double eps = 1e-6;
  const BitVector failed = built.mask("failed");
  const TransformResult transformed = transform_to_ctmdp(built.system, &failed);
  const Ctmdp& ctmdp = transformed.ctmdp;

  // The extracting solve under a guard that cancels at its fourth step.
  RunGuard guard;
  guard.cancel_after_polls(4);
  TimedReachabilityOptions extracting;
  extracting.epsilon = eps;
  extracting.threads = 1;
  extracting.extract_scheduler = true;
  extracting.guard = &guard;
  const TimedReachabilityResult solve =
      timed_reachability(ctmdp, transformed.goal, t, extracting);
  ASSERT_EQ(solve.status, RunStatus::Cancelled);
  ASSERT_LT(solve.iterations_executed, solve.iterations_planned);
  ASSERT_FALSE(solve.decisions.empty());
  EXPECT_THROW((void)io::scheduler_artifact_from_result(solve, Objective::Maximize, t, eps,
                                                        solve.values[ctmdp.initial()]),
               ModelError);
}

TEST(DftScheduler, MalformedArtifactsAreRejected) {
  const Pipeline p = run_dft(fuzzdft::dft_nondeterministic_showcase(), 1.0, Objective::Maximize,
                             1e-8, true, /*extract_scheduler=*/true);
  const io::SchedulerArtifact artifact = io::scheduler_artifact_from_result(
      p.result.reachability, Objective::Maximize, 1.0, 1e-8, p.result.value);
  const std::string json = io::scheduler_to_json(artifact);

  EXPECT_THROW((void)io::scheduler_from_json("not json"), ParseError);
  EXPECT_THROW((void)io::scheduler_from_json("{}"), ParseError);

  std::string wrong_schema = json;
  const std::string::size_type at = wrong_schema.find("unicon-scheduler-v1");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, std::string("unicon-scheduler-v1").size(), "unicon-scheduler-v9");
  EXPECT_THROW((void)io::scheduler_from_json(wrong_schema), ParseError);
}

// ---------------------------------------------------------------------------
// Lowering guard rails.

TEST(DftLower, StateBudgetIsEnforced) {
  const dft::CheckedDft checked = dft::parse_and_check_dft(fuzzdft::dft_nondeterministic_showcase());
  dft::LowerOptions options;
  options.max_states = 3;
  EXPECT_THROW((void)dft::lower_dft(checked, options), ModelError);
}

TEST(DftLower, ComposedSystemIsUniformByConstruction) {
  const dft::CheckedDft checked = dft::parse_and_check_dft(fuzzdft::dft_nondeterministic_showcase());
  const lang::BuiltModel built = dft::lower_dft(checked);
  // Uniform rate is the sum of all basic-event lambdas (1 + 1 + 5).
  EXPECT_DOUBLE_EQ(built.uniform_rate, checked.total_rate);
  EXPECT_DOUBLE_EQ(built.uniform_rate, 7.0);
}

}  // namespace
