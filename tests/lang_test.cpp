// UNI language frontend: diagnostics, golden models, lowering, fuzzing.
//
// The malformed-input table asserts that every lex/parse/semantic error is
// reported with its exact 1-based line and column; the golden tests check
// that the shipped .uni files reproduce the programmatic models' timed
// reachability to 1e-9.
#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/time_constraint.hpp"
#include "ftwc/compositional.hpp"
#include "imc/compose.hpp"
#include "io/tra.hpp"
#include "lang/build.hpp"
#include "lang/fuzz.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/sema.hpp"
#include "lts/lts.hpp"
#include "support/telemetry.hpp"

using namespace unicon;
using namespace unicon::lang;

namespace {

std::string read_model_file(const std::string& name) {
  const std::string path = std::string(UNICON_MODELS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// Malformed inputs: every rejection carries category + exact line:col.

struct BadCase {
  const char* name;
  const char* source;
  Diagnostic::Category category;
  std::uint32_t line;
  std::uint32_t col;
  const char* message_part;
};

const BadCase kBadCases[] = {
    {"malformed_number",
     "component C {\n"
     "  states s0;\n"
     "  initial s0;\n"
     "  rate 1.2.3: s0 -> s0;\n"
     "}\n"
     "system = C;\n",
     Diagnostic::Category::Lex, 4, 8, "malformed number"},
    {"stray_dash", "system = a -- b;\n", Diagnostic::Category::Lex, 1, 12, "stray '-'"},
    {"stray_bracket", "system = a ] b;\n", Diagnostic::Category::Lex, 1, 12, "stray ']'"},
    {"unexpected_character", "component C@ {}\n", Diagnostic::Category::Lex, 1, 12,
     "unexpected character"},
    {"missing_semicolon",
     "component C {\n"
     "  states s0\n"
     "}\n",
     Diagnostic::Category::Parse, 3, 1, "expected"},
    {"missing_expression", "system = ;\n", Diagnostic::Category::Parse, 1, 10, "expected"},
    {"erlang_zero_phases", "timing t = erlang(0, 3);\n", Diagnostic::Category::Parse, 1, 19,
     "positive integer"},
    {"undeclared_state",
     "component C {\n"
     "  states s0;\n"
     "  initial s0;\n"
     "  go: s0 ->\n"
     "    s9;\n"
     "}\n"
     "system = C;\n",
     Diagnostic::Category::Semantic, 5, 5, "undeclared state 's9'"},
    {"tau_in_sync_set",
     "component C {\n"
     "  states s0;\n"
     "  initial s0;\n"
     "  a: s0 -> s0;\n"
     "}\n"
     "system = C |[\n"
     "  tau]| C;\n",
     Diagnostic::Category::Semantic, 7, 3, "tau cannot appear in a synchronization set"},
    {"tau_hidden",
     "component C {\n"
     "  states s0;\n"
     "  initial s0;\n"
     "  a: s0 -> s0;\n"
     "}\n"
     "system = hide {tau} in C;\n",
     Diagnostic::Category::Semantic, 6, 16, "tau cannot be hidden"},
    {"non_uniform_elapse_rate",
     "component C {\n"
     "  states s0, s1;\n"
     "  initial s0;\n"
     "  go: s0 -> s1;\n"
     "  back: s1 -> s0;\n"
     "}\n"
     "timing t = erlang(2, 4);\n"
     "system = C |[go, back]| elapse(go, back, t, running,\n"
     "  rate 1.5);\n",
     Diagnostic::Category::Semantic, 9, 8, "non-uniform time constraint"},
    {"undeclared_component", "system = nosuch;\n", Diagnostic::Category::Semantic, 1, 10,
     "undeclared component"},
    {"non_uniform_component",
     "component C {\n"
     "  states s0, s1;\n"
     "  initial s0;\n"
     "  rate 1: s0 -> s1;\n"
     "  rate 2: s1 -> s0;\n"
     "}\n"
     "system = C;\n",
     Diagnostic::Category::Semantic, 1, 11, "not uniform"},
    {"no_system",
     "component C {\n"
     "  states s0;\n"
     "  initial s0;\n"
     "}\n",
     Diagnostic::Category::Semantic, 1, 1, "no 'system'"},
    {"redeclared_name",
     "component C {\n"
     "  states s0;\n"
     "  initial s0;\n"
     "}\n"
     "timing C = exponential(1);\n"
     "system = C;\n",
     Diagnostic::Category::Semantic, 5, 8, "redeclares"},
    {"let_used_before_definition",
     "component C {\n"
     "  states s0;\n"
     "  initial s0;\n"
     "  a: s0 -> s0;\n"
     "}\n"
     "let x = y ||| C;\n"
     "let y = C;\n"
     "system = x;\n",
     Diagnostic::Category::Semantic, 6, 9, "before its definition"},
};

TEST(LangDiagnostics, MalformedInputsReportExactLocations) {
  for (const BadCase& c : kBadCases) {
    SCOPED_TRACE(c.name);
    bool threw = false;
    try {
      (void)parse_and_check(c.source, "bad.uni");
    } catch (const LangError& e) {
      threw = true;
      const Diagnostic& d = e.diagnostic();
      EXPECT_EQ(static_cast<int>(d.category), static_cast<int>(c.category))
          << "category: " << category_name(d.category) << " — " << d.message;
      EXPECT_EQ(d.loc.line, c.line) << d.message;
      EXPECT_EQ(d.loc.col, c.col) << d.message;
      EXPECT_NE(d.message.find(c.message_part), std::string::npos) << d.message;
      // The rendered message is file:line:col: category: message.
      const std::string expected_prefix = "bad.uni:" + std::to_string(c.line) + ":" +
                                          std::to_string(c.col) + ": " +
                                          category_name(d.category);
      EXPECT_EQ(std::string(e.what()).rfind(expected_prefix, 0), 0u) << e.what();
    }
    EXPECT_TRUE(threw) << "input unexpectedly accepted";
  }
}

TEST(LangDiagnostics, CollectsMultipleSemanticErrors) {
  const char* source =
      "component C {\n"
      "  states s0;\n"
      "  initial s0;\n"
      "  a: s0 -> s1;\n"
      "  b: s2 -> s0;\n"
      "}\n"
      "system = C;\n";
  const std::vector<Diagnostic> diags = check_model(parse_model(source));
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_NE(diags[0].message.find("undeclared state 's1'"), std::string::npos);
  EXPECT_NE(diags[1].message.find("undeclared state 's2'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Printer round-trips on the shipped models.

TEST(LangPrinter, ShippedModelsRoundTrip) {
  for (const char* name : {"quickstart.uni", "erlang_job_shop.uni", "ftwc.uni"}) {
    SCOPED_TRACE(name);
    const std::string source = read_model_file(name);
    const Model m = parse_and_check(source, name);
    const std::string printed = print_model(m);
    const Model reparsed = parse_and_check(printed, name);
    EXPECT_EQ(print_model(reparsed), printed) << "printing is not idempotent";
  }
}

// ---------------------------------------------------------------------------
// Golden tests: the shipped .uni files match the programmatic models.

double analyze(const Imc& system, const BitVector& goal, double t,
               Objective objective = Objective::Maximize) {
  UimcAnalysisOptions options;
  options.reachability.epsilon = 1e-12;
  options.reachability.objective = objective;
  return analyze_timed_reachability(system, goal, t, options).value;
}

/// The quickstart model built directly against the library API (a twin of
/// examples/quickstart.cpp).
Imc programmatic_quickstart(std::vector<bool>* goal) {
  auto actions = std::make_shared<ActionTable>();
  auto server = [&](const std::string& id) {
    LtsBuilder b(actions);
    const StateId up = b.add_state("up");
    const StateId down = b.add_state("down");
    const StateId repairing = b.add_state("down");
    b.set_initial(up);
    b.add_transition(up, "fail", down);
    b.add_transition(down, "grab_" + id, repairing);
    b.add_transition(repairing, "repair_done_" + id, up);
    std::vector<TimeConstraint> constraints;
    constraints.emplace_back(PhaseType::exponential(0.01), "fail", "repair_done_" + id,
                             /*running=*/true);
    constraints.emplace_back(PhaseType::exponential(0.5), "repair_done_" + id, "grab_" + id);
    ExploreOptions options;
    options.record_names = true;
    return apply_time_constraints(b.build(), constraints, options)
        .hide({actions->intern("fail")});
  };
  const Imc server_a = server("a");
  const Imc server_b = server("b");

  LtsBuilder tech(actions);
  const StateId idle = tech.add_state("idle");
  const StateId busy_a = tech.add_state("busy_a");
  const StateId busy_b = tech.add_state("busy_b");
  tech.set_initial(idle);
  tech.add_transition(idle, "grab_a", busy_a);
  tech.add_transition(busy_a, "repair_done_a", idle);
  tech.add_transition(idle, "grab_b", busy_b);
  tech.add_transition(busy_b, "repair_done_b", idle);

  std::unordered_set<Action> sync;
  for (const char* a : {"grab_a", "grab_b", "repair_done_a", "repair_done_b"}) {
    sync.insert(actions->intern(a));
  }
  CompositionExpr expr = CompositionExpr::parallel(
      CompositionExpr::interleave(CompositionExpr::leaf(server_a), CompositionExpr::leaf(server_b)),
      std::move(sync), CompositionExpr::leaf(imc_from_lts(tech.build())));
  ExploreOptions explore;
  explore.record_names = true;
  explore.urgent = true;
  Imc system = expr.explore(explore);

  goal->assign(system.num_states(), false);
  for (StateId s = 0; s < system.num_states(); ++s) {
    const std::string& name = system.state_name(s);
    std::size_t downs = 0;
    for (std::size_t pos = name.find("down"); pos != std::string::npos;
         pos = name.find("down", pos + 1)) {
      ++downs;
    }
    (*goal)[s] = downs >= 2;
  }
  return system;
}

TEST(LangGolden, QuickstartMatchesProgrammaticModel) {
  const Model ast = parse_and_check(read_model_file("quickstart.uni"), "quickstart.uni");
  const BuiltModel built = build_model(ast);

  std::vector<bool> goal;
  const Imc twin = programmatic_quickstart(&goal);
  EXPECT_EQ(built.system.num_states(), twin.num_states());
  EXPECT_NEAR(built.uniform_rate, *twin.uniform_rate(UniformityView::Closed, 1e-6), 1e-12);

  for (double t : {24.0, 168.0}) {
    EXPECT_NEAR(analyze(built.system, built.mask("goal"), t), analyze(twin, goal, t), 1e-9);
    EXPECT_NEAR(analyze(built.system, built.mask("goal"), t, Objective::Minimize),
                analyze(twin, goal, t, Objective::Minimize), 1e-9);
  }
}

/// Twin of examples/erlang_job_shop.cpp (2 light + 2 heavy jobs).
Imc programmatic_job_shop(std::vector<bool>* goal) {
  constexpr unsigned kLight = 2, kHeavy = 2;
  auto actions = std::make_shared<ActionTable>();

  LtsBuilder machine(actions);
  const StateId free_state = machine.add_state("free");
  const StateId busy_light = machine.add_state("busy_light");
  const StateId busy_heavy = machine.add_state("busy_heavy");
  machine.set_initial(free_state);
  machine.add_transition(free_state, "start_light", busy_light);
  machine.add_transition(busy_light, "done_light", free_state);
  machine.add_transition(free_state, "start_heavy", busy_heavy);
  machine.add_transition(busy_heavy, "done_heavy", free_state);

  std::vector<TimeConstraint> constraints;
  constraints.emplace_back(PhaseType::erlang(2, 8.0), "done_light", "start_light");
  constraints.emplace_back(PhaseType::erlang(4, 2.0), "done_heavy", "start_heavy");
  ExploreOptions opts;
  opts.record_names = true;
  const Imc machine_imc = apply_time_constraints(machine.build(), constraints, opts);

  LtsBuilder pool(actions);
  std::vector<StateId> ids((kLight + 1) * (kHeavy + 1) * (kLight + 1), kNoState);
  auto idx = [](unsigned lp, unsigned hp, unsigned ld) {
    return (lp * (kHeavy + 1) + hp) * (kLight + 1) + ld;
  };
  for (unsigned lp = 0; lp <= kLight; ++lp) {
    for (unsigned hp = 0; hp <= kHeavy; ++hp) {
      for (unsigned ld = 0; ld + lp <= kLight; ++ld) {
        ids[idx(lp, hp, ld)] =
            pool.add_state(ld == kLight ? "lights_done" : "lp" + std::to_string(lp));
      }
    }
  }
  pool.set_initial(ids[idx(kLight, kHeavy, 0)]);
  for (unsigned lp = 0; lp <= kLight; ++lp) {
    for (unsigned hp = 0; hp <= kHeavy; ++hp) {
      for (unsigned ld = 0; ld + lp <= kLight; ++ld) {
        const StateId from = ids[idx(lp, hp, ld)];
        if (lp > 0) pool.add_transition(from, "start_light", ids[idx(lp - 1, hp, ld)]);
        if (hp > 0) pool.add_transition(from, "start_heavy", ids[idx(lp, hp - 1, ld)]);
        if (ld + lp < kLight) pool.add_transition(from, "done_light", ids[idx(lp, hp, ld + 1)]);
        pool.add_transition(from, "done_heavy", from);
      }
    }
  }

  std::unordered_set<Action> sync;
  for (const char* a : {"start_light", "start_heavy", "done_light", "done_heavy"}) {
    sync.insert(actions->intern(a));
  }
  CompositionExpr expr =
      CompositionExpr::parallel(CompositionExpr::leaf(machine_imc), std::move(sync),
                                CompositionExpr::leaf(imc_from_lts(pool.build())));
  ExploreOptions explore;
  explore.record_names = true;
  explore.urgent = true;
  Imc system = expr.explore(explore);

  goal->assign(system.num_states(), false);
  for (StateId s = 0; s < system.num_states(); ++s) {
    (*goal)[s] = system.state_name(s).find("lights_done") != std::string::npos;
  }
  return system;
}

TEST(LangGolden, ErlangJobShopMatchesProgrammaticModel) {
  const Model ast =
      parse_and_check(read_model_file("erlang_job_shop.uni"), "erlang_job_shop.uni");
  const BuiltModel built = build_model(ast);

  std::vector<bool> goal;
  const Imc twin = programmatic_job_shop(&goal);
  EXPECT_EQ(built.system.num_states(), twin.num_states());
  EXPECT_NEAR(built.uniform_rate, *twin.uniform_rate(UniformityView::Closed, 1e-6), 1e-12);

  for (double t : {1.0, 3.0}) {
    EXPECT_NEAR(analyze(built.system, built.mask("goal"), t), analyze(twin, goal, t), 1e-9);
    EXPECT_NEAR(analyze(built.system, built.mask("goal"), t, Objective::Minimize),
                analyze(twin, goal, t, Objective::Minimize), 1e-9);
  }
}

TEST(LangGolden, FtwcMatchesCompositionalBuild) {
  const Model ast = parse_and_check(read_model_file("ftwc.uni"), "ftwc.uni");
  BuiltModel built = build_model(ast);
  // The programmatic build minimizes along the way; quotient the language
  // build too so Algorithm 1 runs on a comparable state count.
  built = minimize_model(built);

  ftwc::Parameters params;
  params.n = 2;
  const ftwc::CompositionalResult twin = ftwc::build_compositional(params);
  EXPECT_NEAR(built.uniform_rate, twin.uniform_rate, 1e-9);

  const double t = 10.0;
  EXPECT_NEAR(analyze(built.system, built.mask("goal"), t), analyze(twin.uimc, twin.goal, t),
              1e-9);
}

// ---------------------------------------------------------------------------
// Lowering details.

TEST(LangBuild, MinimizationPreservesValuesAndProps) {
  const Model ast = parse_and_check(read_model_file("quickstart.uni"), "quickstart.uni");
  const BuiltModel built = build_model(ast);
  const BuiltModel reduced = minimize_model(built);

  // Quickstart happens to be bisimulation-minimal already, so only require
  // that the quotient never grows; value/prop preservation is the point.
  EXPECT_LE(reduced.system.num_states(), built.system.num_states());
  EXPECT_EQ(reduced.prop_names, built.prop_names);
  const double t = 72.0;
  EXPECT_NEAR(analyze(reduced.system, reduced.mask("goal"), t),
              analyze(built.system, built.mask("goal"), t), 1e-9);
}

TEST(LangBuild, PropsFollowLeafStates) {
  const char* source =
      "component C {\n"
      "  states s0, s1;\n"
      "  initial s0;\n"
      "  label at_start: s0;\n"
      "  rate 1: s0 -> s1;\n"
      "  rate 1: s1 -> s0;\n"
      "}\n"
      "component D {\n"
      "  states t0, t1;\n"
      "  initial t0;\n"
      "  label d_moved: t1;\n"
      "  rate 2: t0 -> t1;\n"
      "  rate 2: t1 -> t0;\n"
      "}\n"
      "system = C ||| D;\n"
      "prop both = at_start & d_moved;\n";
  const BuiltModel built = build_model(parse_and_check(source));
  EXPECT_EQ(built.system.num_states(), 4u);
  EXPECT_NEAR(built.uniform_rate, 3.0, 1e-12);
  std::size_t count_start = 0, count_both = 0;
  for (StateId s = 0; s < built.system.num_states(); ++s) {
    count_start += built.mask("at_start")[s] ? 1 : 0;
    count_both += built.mask("both")[s] ? 1 : 0;
  }
  EXPECT_EQ(count_start, 2u);
  EXPECT_EQ(count_both, 1u);
  EXPECT_TRUE(built.has_prop("d_moved"));
  EXPECT_FALSE(built.has_prop("nonexistent"));
}

// ---------------------------------------------------------------------------
// io: arbitrary named propositions in .lab files.

TEST(IoLabels, WriteReadRoundTrip) {
  io::LabelMasks labels;
  labels.emplace_back("goal", std::vector<bool>{false, true, false, true});
  labels.emplace_back("init", std::vector<bool>{true, false, false, false});
  labels.emplace_back("never", std::vector<bool>{false, false, false, false});

  std::stringstream file;
  io::write_labels(file, labels);
  const io::LabelMasks reread = io::read_labels(file, 4);

  // All-false masks are not representable; the other props come back in
  // first-seen order.
  ASSERT_EQ(reread.size(), 2u);
  EXPECT_EQ(reread[0].first, "init");
  EXPECT_EQ(reread[0].second, labels[1].second);
  EXPECT_EQ(reread[1].first, "goal");
  EXPECT_EQ(reread[1].second, labels[0].second);
}

TEST(IoLabels, ReadGoalIsAThinWrapper) {
  std::stringstream file;
  io::write_goal(file, std::vector<bool>{false, true, true});
  EXPECT_EQ(io::read_goal(file, 3), (std::vector<bool>{false, true, true}));

  std::stringstream no_goal("0 other\n");
  EXPECT_EQ(io::read_goal(no_goal, 2), (std::vector<bool>{false, false}));
}

TEST(IoLabels, MalformedLinesThrow) {
  std::stringstream bad("not_a_state goal\n");
  EXPECT_THROW((void)io::read_labels(bad, 3), ParseError);

  std::stringstream out_of_range("7 goal\n");
  EXPECT_THROW((void)io::read_labels(out_of_range, 3), ParseError);
}

// ---------------------------------------------------------------------------
// Language fuzzing smoke: generated models round-trip cleanly.

TEST(LangFuzz, RoundTripSmoke) {
  LangFuzzConfig config;
  config.num_seeds = 6;
  config.base_seed = 1;
  const LangFuzzReport report = run_lang_fuzz(config);
  EXPECT_EQ(report.seeds_run, 6u);
  for (const LangFuzzFailure& f : report.failures) {
    ADD_FAILURE() << "seed " << f.seed << ": " << f.message;
  }
}

TEST(LangFuzz, GeneratorIsDeterministic) {
  EXPECT_EQ(print_model(random_model(42)), print_model(random_model(42)));
  EXPECT_NE(print_model(random_model(42)), print_model(random_model(43)));
}

// ---------------------------------------------------------------------------
// Pipeline telemetry golden: the quickstart model end to end with a live
// registry.  Pins the whole observable surface — span tree shape (build >
// compose, minimize > bisim, transform, reachability), the structural
// counters of every stage, the word-length histogram and the per-worker
// row counter.  Everything here is deterministic at threads = 1; only the
// wall-clock seconds are canonicalized away.

TEST(PipelineTelemetry, QuickstartGoldenSpanTree) {
  const Model ast = parse_and_check(read_model_file("quickstart.uni"), "quickstart.uni");
  Telemetry telemetry;
  BuildOptions build_options;
  build_options.telemetry = &telemetry;
  BuiltModel built = build_model(ast, build_options);
  built = minimize_model(built, nullptr, &telemetry);
  UimcAnalysisOptions options;
  options.reachability.threads = 1;
  // The golden tree pins the serial engine's observables (the dense SIMD
  // backend adds a dense_rows metric and sweeps fewer rows), so the backend
  // is fixed rather than inherited from UNICON_BACKEND.
  options.reachability.backend = Backend::Serial;
  options.reachability.telemetry = &telemetry;
  const auto result =
      analyze_timed_reachability(built.system, built.mask("goal"), 1.0, options);
  EXPECT_EQ(result.reachability.status, RunStatus::Converged);

  static const std::regex seconds_re("\"seconds\": [0-9.]+");
  const std::string json =
      std::regex_replace(telemetry.to_json(), seconds_re, "\"seconds\": T");
  const std::string expected =
      "{\n"
      "  \"schema\": \"unicon-telemetry-v1\",\n"
      "  \"spans\": [\n"
      "    {\"name\": \"build\", \"seconds\": T, \"open\": false, \"metrics\": "
      "{\"states\": 15, \"leaves\": 7, \"uniform_rate\": 1.02, \"labels\": 2, \"props\": 3}, "
      "\"children\": [\n"
      "      {\"name\": \"compose\", \"seconds\": T, \"open\": false, \"metrics\": "
      "{\"leaves\": 7, \"states\": 15, \"interactive_transitions\": 10, "
      "\"markov_transitions\": 20, \"dedup_hits\": 16, \"peak_frontier\": 4, "
      "\"arena_bytes\": 932}, "
      "\"children\": []}\n"
      "    ]},\n"
      "    {\"name\": \"minimize\", \"seconds\": T, \"open\": false, \"metrics\": "
      "{\"input_states\": 15, \"output_states\": 15, \"prop_classes\": 4}, \"children\": [\n"
      "      {\"name\": \"bisim\", \"seconds\": T, \"open\": false, \"metrics\": "
      "{\"states\": 15, \"rounds\": 3, \"splitters\": 11, \"final_blocks\": 15, "
      "\"signature_bytes\": 368}, "
      "\"children\": []}\n"
      "    ]},\n"
      "    {\"name\": \"transform\", \"seconds\": T, \"open\": false, \"metrics\": "
      "{\"input_states\": 15, \"interactive_states\": 14, \"markov_states\": 5, "
      "\"interactive_transitions\": 14, \"markov_transitions\": 13, "
      "\"words_deduplicated\": 0, \"markov_transitions_cut\": 0, \"pair_states_added\": 5, "
      "\"memory_bytes\": 528}, \"children\": []},\n"
      "    {\"name\": \"reachability\", \"seconds\": T, \"open\": false, \"metrics\": "
      "{\"states\": 14, \"transitions\": 14, \"uniform_rate\": 1.02, \"lambda\": 1.02, "
      "\"poisson_left\": 0, \"poisson_right\": 9, \"poisson_width\": 10, "
      "\"iterations_planned\": 9, \"iterations_executed\": 9, \"threads\": 1, "
      "\"residual_bound\": 9.9999999999999995e-07, "
      "\"truncation.k_fox_glynn\": 9, \"truncation.k_effective\": 9, "
      "\"truncation.k_lyapunov\": 0, \"truncation.locked_final\": 0, "
      "\"truncation.state_updates\": 126}, \"children\": []}\n"
      "  ],\n"
      "  \"counters\": {\n"
      "    \"reachability.rows.worker0\": 126\n"
      "  },\n"
      "  \"gauges\": {},\n"
      "  \"histograms\": {\n"
      "    \"transform.word_length\": {\"count\": 13, \"sum\": 8, \"min\": 0, \"max\": 2, "
      "\"buckets\": [{\"bucket\": 0, \"count\": 7}, {\"bucket\": 1, \"count\": 4}, "
      "{\"bucket\": 2, \"count\": 2}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

// ---------------------------------------------------------------------------
// Zeno rejection: an untimed interactive cycle must surface as a typed
// ZenoError (stable code 11) from the analysis, not as a hang or a wrong
// number.

// ---------------------------------------------------------------------------
// Small rates: two failure clocks at 1e-10 and 4e-10 per time unit must not
// lump under minimization.  sup P(broken within 1e9) = 1 - exp(-0.4).

TEST(LangSmallRates, MinimizationKeepsRatesFourTimesApart) {
  std::ifstream in(std::string(UNICON_TEST_MODELS_DIR) + "/small_rates.uni");
  ASSERT_TRUE(in.good());
  std::ostringstream source;
  source << in.rdbuf();
  const BuiltModel built = build_model(parse_and_check(source.str(), "small_rates.uni"));
  const BuiltModel minimized = minimize_model(built);
  EXPECT_EQ(built.system.num_states(), 7u);
  EXPECT_EQ(minimized.system.num_states(), 5u);
  const double exact = 1.0 - std::exp(-0.4);
  EXPECT_NEAR(analyze(minimized.system, minimized.mask("goal"), 1e9), exact, 1e-9);
  EXPECT_NEAR(analyze(built.system, built.mask("goal"), 1e9), exact, 1e-9);
}

TEST(LangZeno, UntimedInteractiveCycleIsRejectedWithZenoError) {
  const std::string source = [] {
    const std::string path = std::string(UNICON_TEST_MODELS_DIR) + "/zeno_cycle.uni";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }();
  const Model ast = parse_and_check(source, "zeno_cycle.uni");
  const BuiltModel built = build_model(ast);  // exploration itself is fine
  EXPECT_GT(built.system.num_interactive_transitions(), 0u);
  try {
    (void)analyze_timed_reachability(built.system, built.mask("goal"), 1.0);
    FAIL() << "expected ZenoError";
  } catch (const ZenoError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Zeno);
    EXPECT_EQ(e.exit_code(), 11);
    EXPECT_NE(std::string(e.what()).find("Zeno"), std::string::npos) << e.what();
  }
}

}  // namespace
