// The three offline workloads: ftwc_structural, ftwc_long_horizon and
// model_text.  A pass answers its queries cold, the way one unicon_check
// process would; the traced run replaces the analysis glue by the calls it
// makes, each inside a layer span.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/analysis.hpp"
#include "ctmdp/backend.hpp"
#include "dft/lower.hpp"
#include "dft/sema.hpp"
#include "ftwc/direct.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"
#include "support/errors.hpp"

namespace perfbench {

using unicon::BitVector;
using unicon::Imc;
using unicon::RunStatus;
using unicon::Stopwatch;
using unicon::Telemetry;

namespace {

constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kScheduleLength = 256;

struct Answer {
  double value = 0.0;
  RunStatus status = RunStatus::Converged;
  std::size_t ctmdp_states = 0;
  std::size_t ctmdp_transitions = 0;
};

/// analyze_timed_reachability on @p m — or, in a traced pass, the calls it
/// makes: the closed-view uniformity check, the transformation, the kernel
/// of the resolved Auto backend and the sweep with that prebuilt kernel
/// (bit-identical to the glue by the solver's kernel contract).
Answer analyze(const Imc& m, const BitVector& goal, double t, Objective objective,
               Telemetry* telemetry) {
  Answer answer;
  if (telemetry == nullptr) {
    unicon::UimcAnalysisOptions options;
    options.reachability = solver_options(objective);
    const unicon::UimcAnalysisResult r = unicon::analyze_timed_reachability(m, goal, t, options);
    answer.value = r.value;
    answer.status = r.reachability.status;
    answer.ctmdp_states = r.transformed.ctmdp.num_states();
    answer.ctmdp_transitions = r.transformed.ctmdp.num_transitions();
    return answer;
  }

  bool uniform = false;
  {
    LayerSpan span(telemetry, "imc.uniformity_check");
    uniform = m.is_uniform(unicon::UniformityView::Closed, 1e-6);
  }
  if (!uniform) throw unicon::UniformityError("perfbench: model is not uniform (closed view)");

  unicon::TransformResult transformed;
  {
    LayerSpan span(telemetry, "core.transform");
    transformed = unicon::transform_to_ctmdp(m, &goal);
    span.metric("ctmdp_states", transformed.ctmdp.num_states());
    span.metric("ctmdp_transitions", transformed.ctmdp.num_transitions());
    span.metric("words_deduplicated", transformed.stats.words_deduplicated);
  }
  const BitVector& ctmdp_goal =
      objective == Objective::Maximize ? transformed.goal : transformed.goal_universal;

  unicon::TimedReachabilityOptions options = solver_options(objective);
  std::optional<unicon::DiscreteKernel> discrete;
  std::optional<unicon::DenseKernel> dense;
  {
    LayerSpan span(telemetry, "ctmdp.kernel");
    if (unicon::resolve_backend(options.backend) == unicon::Backend::Serial) {
      options.discrete_kernel = &discrete.emplace(transformed.ctmdp, ctmdp_goal);
    } else {
      options.dense_kernel = &dense.emplace(transformed.ctmdp, ctmdp_goal, options.avoid);
    }
  }

  unicon::TimedReachabilityResult r;
  {
    LayerSpan span(telemetry, "ctmdp.sweep");
    r = unicon::timed_reachability(transformed.ctmdp, ctmdp_goal, t, options);
    span.metric("iterations_planned", r.iterations_planned);
    span.metric("iterations_executed", r.iterations_executed);
    span.metric("row_updates", r.state_updates);
    span.metric("effective_sweeps", static_cast<double>(r.state_updates) /
                                        static_cast<double>(transformed.ctmdp.num_states()));
    span.metric("locked_final", r.locked_final);
  }
  answer.value = r.values[transformed.ctmdp.initial()];
  answer.status = r.status;
  answer.ctmdp_states = transformed.ctmdp.num_states();
  answer.ctmdp_transitions = transformed.ctmdp.num_transitions();
  return answer;
}

/// Runs pass @p index and returns its wall time.  With a registry, the
/// pass is one root span.
template <class Pass>
double run_pass(std::size_t index, Telemetry* telemetry, Pass& pass, const char* label) {
  Stopwatch watch;
  std::optional<Telemetry::Span> root;
  if (telemetry != nullptr) root.emplace(telemetry->span("bench.pass"));
  pass(index, telemetry);
  root.reset();
  const double seconds = watch.seconds();
  std::fprintf(stderr, "perfbench: %s pass %zu: %.6f s\n", label, index, seconds);
  return seconds;
}

/// Times @p make kSetupReps times, each on the next CPU; returns the
/// median seconds.  A set-up generates the inputs and answers one pass
/// cold: the time to a run's first answers.
template <class Make>
double time_setup(Make&& make) {
  std::vector<double> times;
  CpuRotation cpus;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    cpus.next();
    Stopwatch watch;
    make();
    times.push_back(watch.seconds());
  }
  return median(times);
}

struct FtwcSchedule {
  std::string model;
  unsigned n = 0;
  std::vector<double> grid;
  std::vector<double> times;     // per pass
  std::vector<double> expected;  // per pass
  std::string bytes;
};

FtwcSchedule make_ftwc_schedule(const RunConfig& config, const References& refs,
                                bool long_horizon) {
  FtwcSchedule s;
  s.n = long_horizon ? kLongHorizonN : kStructuralN;
  s.model = "ftwc_direct_N" + std::to_string(s.n);
  s.grid = long_horizon ? kLongHorizonGrid : kStructuralGrid;
  Rng rng(config.seed);
  for (std::size_t p = 0; p < kScheduleLength; ++p) {
    s.times.push_back(s.grid[rng.below(s.grid.size())]);
    s.expected.push_back(refs.value(s.model, s.times.back(), Objective::Maximize));
    s.bytes += value_key(s.model, s.times.back(), Objective::Maximize) + "\n";
  }
  return s;
}

/// One cold query of an FTWC workload: the direct route into the glue.
Answer ftwc_query(unsigned n, double t, Telemetry* telemetry) {
  unicon::ftwc::Parameters params;
  params.n = n;
  std::optional<unicon::ftwc::DirectResult> direct;
  {
    LayerSpan span(telemetry, "ftwc.build");
    direct.emplace(unicon::ftwc::build_direct(params));
    span.metric("uimc_states", direct->uimc.num_states());
  }
  return analyze(direct->uimc, direct->goal, t, Objective::Maximize, telemetry);
}

struct TextAnswer {
  Answer answer;
  std::size_t product_states = 0;
  std::size_t minimized_states = 0;
};

/// One cold text-to-answer query, as unicon_check model|dft runs it.
TextAnswer text_query(const TextQuery& q, Telemetry* telemetry) {
  TextAnswer out;
  std::optional<unicon::lang::BuiltModel> built;
  if (q.dft) {
    std::optional<unicon::dft::CheckedDft> checked;
    {
      LayerSpan span(telemetry, "dft.parse");
      checked.emplace(unicon::dft::parse_and_check_dft(*q.source, q.name));
    }
    LayerSpan span(telemetry, "dft.lower");
    built.emplace(unicon::dft::lower_dft(*checked));
    span.metric("product_states", built->system.num_states());
  } else {
    std::optional<unicon::lang::Model> ast;
    {
      LayerSpan span(telemetry, "lang.parse");
      ast.emplace(unicon::lang::parse_and_check(*q.source, q.name));
    }
    LayerSpan span(telemetry, "lang.build");
    built.emplace(unicon::lang::build_model(*ast));
    span.metric("product_states", built->system.num_states());
  }
  out.product_states = built->system.num_states();
  {
    LayerSpan span(telemetry, "bisim.minimize");
    built = unicon::lang::minimize_model(*built);
    span.metric("states_out", built->system.num_states());
  }
  out.minimized_states = built->system.num_states();
  if (!built->has_prop(q.goal)) throw unicon::ModelError("no proposition " + q.goal);
  out.answer = analyze(built->system, BitVector(built->mask(q.goal)), q.t, q.objective, telemetry);
  return out;
}

/// The timed run: kSetupReps set-ups — @p generate and pass 0 — then
/// passes until config.seconds have elapsed (at least one), each on the
/// next CPU, then the end-to-end metrics; the passes fill @p fastest_ms
/// (every query kind of a pass) and @p latency_ms (the kinds the
/// percentiles cover).  The traced run: no set-up, so the first traced
/// pass meets a cold high-water mark, then paired traced and untraced
/// passes for config.seconds.
template <class Generate, class Pass>
void run_offline(Outcome& out, const RunConfig& config, Generate&& generate,
                 std::size_t queries_per_pass, Fastest& fastest_ms, Fastest& latency_ms,
                 Pass&& pass) {
  if (!config.trace) {
    const double setup_s = time_setup([&] {
      generate();
      pass(0, nullptr);
    });
    fastest_ms = Fastest();
    latency_ms = Fastest();
    CpuRotation cpus;
    Stopwatch run;
    std::size_t passes = 0;
    do {
      cpus.next();
      run_pass(passes++, nullptr, pass, "timed");
    } while (run.seconds() < config.seconds);
    emit_end_to_end(out, setup_s, fastest_ms.sum_ms() / 1e3, queries_per_pass, latency_ms);
    return;
  }
  Telemetry telemetry;
  const std::vector<double> untraced =
      paired_passes(config.seconds, telemetry, [&](std::size_t i, Telemetry* t) {
        return run_pass(i, t, pass, t != nullptr ? "traced" : "untraced");
      });
  emit_layer_metrics(out, aggregate_spans(telemetry),
                     *std::min_element(untraced.begin(), untraced.end()), {});
}

/// Checks the paper's Table 1 counts once, untimed, at sizes larger than
/// the timed passes use.
void check_table1(Outcome& out, const References& refs) {
  for (const unsigned n : kTable1Sizes) {
    const std::string model = "ftwc_direct_N" + std::to_string(n);
    ++out.attempted;
    try {
      unicon::ftwc::Parameters params;
      params.n = n;
      const unicon::ftwc::DirectResult direct = unicon::ftwc::build_direct(params);
      const unicon::TransformResult transformed =
          unicon::transform_to_ctmdp(direct.uimc, &direct.goal);
      out.check_count(refs, model + ".ctmdp_states", transformed.ctmdp.num_states()) &&
          out.check_count(refs, model + ".ctmdp_transitions", transformed.ctmdp.num_transitions());
    } catch (const std::exception& e) {
      out.fail(model + ": " + e.what());
    }
  }
}

}  // namespace

Outcome run_ftwc(const RunConfig& config, const References& refs, bool long_horizon) {
  Outcome out;
  FtwcSchedule schedule = make_ftwc_schedule(config, refs, long_horizon);
  print_inputs(config, schedule.bytes,
               "\"n\": " + std::to_string(schedule.n) +
                   ", \"grid_points\": " + std::to_string(schedule.grid.size()) +
                   ", \"queries_per_pass\": 1");
  if (config.inputs_only) return out;

  Fastest fastest_ms;  // one kind: the model
  auto pass = [&](std::size_t i, Telemetry* telemetry) {
    const std::size_t p = i % schedule.times.size();
    const std::string what = value_key(schedule.model, schedule.times[p], Objective::Maximize);
    ++out.attempted;
    Stopwatch watch;
    try {
      const Answer a = ftwc_query(schedule.n, schedule.times[p], telemetry);
      if (telemetry == nullptr) fastest_ms.add(schedule.model, watch.seconds() * 1e3);
      out.check_status(what, a.status) &&
          out.check_count(refs, schedule.model + ".ctmdp_states", a.ctmdp_states) &&
          out.check_count(refs, schedule.model + ".ctmdp_transitions", a.ctmdp_transitions) &&
          out.check(what, a.value, schedule.expected[p]);
    } catch (const std::exception& e) {
      out.fail(what + ": " + e.what());
    }
  };
  run_offline(
      out, config, [&] { schedule = make_ftwc_schedule(config, refs, long_horizon); }, 1,
      fastest_ms, fastest_ms, pass);
  // After the metrics, so its memory stays out of peak_rss_mb.
  if (!long_horizon) check_table1(out, refs);
  return out;
}

Outcome run_model_text(const RunConfig& config, const References& refs) {
  Outcome out;
  auto generate = [&] {
    Rng rng(config.seed);
    return make_text_inputs(config.root, refs, rng, kScheduleLength);
  };
  TextInputs inputs = generate();
  print_inputs(config, serialize(inputs),
               "\"smoke_queries\": " + std::to_string(inputs.smoke.size()) +
                   ", \"queries_per_pass\": " + std::to_string(inputs.passes[0].size()) +
                   ", \"sources\": " + std::to_string(inputs.sources.size()));
  if (config.inputs_only) return out;

  // A SMOKE line is one kind, a generated model another.  The latency
  // percentiles cover the generated models only: 16 of the 21 SMOKE lines
  // are toys of a few hundred states, so percentiles over every kind would
  // fall on them and never see composition, lowering or minimization.
  Fastest fastest_ms, generated_ms;
  auto pass = [&](std::size_t i, Telemetry* telemetry) {
    for (const TextQuery& q : inputs.passes[i % inputs.passes.size()]) {
      const std::string what = value_key(q.name, q.t, q.objective);
      const bool generated = q.name.rfind("gen_", 0) == 0;  // sizes pinned in refs
      ++out.attempted;
      Stopwatch watch;
      try {
        const TextAnswer a = text_query(q, telemetry);
        if (telemetry == nullptr) {
          const double ms = watch.seconds() * 1e3;
          fastest_ms.add(generated ? q.name : what + " " + q.goal, ms);
          if (generated) generated_ms.add(q.name, ms);
        }
        out.check_status(what, a.answer.status) &&
            (!generated ||
             (out.check_count(refs, q.name + ".product_states", a.product_states) &&
              out.check_count(refs, q.name + ".minimized_states", a.minimized_states))) &&
            out.check(what, a.answer.value, q.expected);
      } catch (const std::exception& e) {
        out.fail(what + ": " + e.what());
      }
    }
  };
  run_offline(
      out, config, [&] { inputs = generate(); }, inputs.passes[0].size(), fastest_ms,
      generated_ms, pass);
  return out;
}

}  // namespace perfbench
