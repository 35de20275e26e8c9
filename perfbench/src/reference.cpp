// --make-reference: recomputes every reference answer of the benchmark at
// epsilon 1e-10 on the serial backend, one thread, through independent
// single-horizon solves, and pins the structural counts.
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/analysis.hpp"
#include "ctmc/transient.hpp"
#include "dft/lower.hpp"
#include "dft/sema.hpp"
#include "ftwc/direct.hpp"
#include "io/tra.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"

namespace perfbench {

namespace {

constexpr double kReferenceEpsilon = 1e-10;
constexpr Objective kObjectives[] = {Objective::Maximize, Objective::Minimize};

unicon::TimedReachabilityOptions reference_options(Objective objective) {
  unicon::TimedReachabilityOptions options;
  options.epsilon = kReferenceEpsilon;
  options.objective = objective;
  options.backend = unicon::Backend::Serial;
  options.threads = 1;
  return options;
}

double analyze(const unicon::lang::BuiltModel& built, const std::string& goal, double t,
               Objective objective) {
  unicon::UimcAnalysisOptions options;
  options.reachability = reference_options(objective);
  return unicon::analyze_timed_reachability(built.system, built.mask(goal), t, options).value;
}

unicon::lang::BuiltModel build_text(const std::string& name, const std::string& source,
                                    bool dft, References& refs) {
  unicon::lang::BuiltModel built =
      dft ? unicon::dft::lower_dft(unicon::dft::parse_and_check_dft(source, name))
          : unicon::lang::build_model(unicon::lang::parse_and_check(source, name));
  refs.counts[name + ".product_states"] = built.system.num_states();
  built = unicon::lang::minimize_model(built);
  refs.counts[name + ".minimized_states"] = built.system.num_states();
  return built;
}

}  // namespace

void make_references(const RunConfig& config, const std::string& path) {
  References refs;

  // FTWC direct route.  The paper's Table 1 fixes the CTMDP sizes at
  // N = 16 and N = 64 (kTable1Sizes, checked for their counts only); the
  // timed sizes are pinned as computed.
  const std::map<unsigned, std::pair<std::size_t, std::size_t>> table1 = {
      {16, {40345, 57230}}, {64, {615961, 880142}}};
  struct FtwcCase {
    unsigned n;
    std::vector<double> grid;
  };
  std::vector<FtwcCase> cases = {{kStructuralN, kStructuralGrid}, {kLongHorizonN, kLongHorizonGrid}};
  for (const unsigned n : kTable1Sizes) cases.push_back({n, {}});
  for (const FtwcCase& c : cases) {
    const std::string model = "ftwc_direct_N" + std::to_string(c.n);
    unicon::ftwc::Parameters params;
    params.n = c.n;
    const unicon::ftwc::DirectResult direct = unicon::ftwc::build_direct(params);
    const unicon::TransformResult transformed =
        unicon::transform_to_ctmdp(direct.uimc, &direct.goal);
    const std::pair<std::size_t, std::size_t> size = {transformed.ctmdp.num_states(),
                                                      transformed.ctmdp.num_transitions()};
    if (table1.count(c.n) && table1.at(c.n) != size) {
      throw std::runtime_error(model + ": CTMDP size differs from Table 1");
    }
    refs.counts[model + ".ctmdp_states"] = size.first;
    refs.counts[model + ".ctmdp_transitions"] = size.second;
    for (const double t : c.grid) {
      unicon::UimcAnalysisOptions options;
      options.reachability = reference_options(Objective::Maximize);
      const auto r = unicon::analyze_timed_reachability(direct.uimc, direct.goal, t, options);
      refs.values[value_key(model, t, Objective::Maximize)] = r.value;
      std::fprintf(stderr, "%s t=%g: %.12f\n", model.c_str(), t, r.value);
    }
  }

  // model_text's generated models (the SMOKE lines carry their own answers).
  Rng rng(config.seed);
  const TextInputs text = make_text_inputs(config.root, refs, rng, 0);
  for (const bool dft : {false, true}) {
    const std::string name = dft ? kGeneratedDft : kGeneratedUni;
    const unicon::lang::BuiltModel built = build_text(name, text.sources.at(name), dft, refs);
    for (const double t : dft ? text.dft_grid : text.uni_grid) {
      for (const Objective objective : kObjectives) {
        refs.values[value_key(name, t, objective)] =
            analyze(built, dft ? "failed" : "goal", t, objective);
      }
    }
    std::fprintf(stderr, "%s done\n", name.c_str());
  }

  // server_mix's hot set, through the single-horizon solvers.
  const ServerInputs server = make_server_inputs(config.root, rng, 0);
  for (const HotModel& m : server.models) {
    using unicon::server::ModelKind;
    std::istringstream source(m.source), labels(m.labels);
    if (m.kind == ModelKind::Uni || m.kind == ModelKind::Dft) {
      References unpinned;  // the hot set's sizes are not pinned
      const bool dft = m.kind == ModelKind::Dft;
      const unicon::lang::BuiltModel built = build_text(m.name, m.source, dft, unpinned);
      for (const double t : m.grid) {
        for (const Objective objective : kObjectives) {
          refs.values[value_key(m.name, t, objective)] =
              analyze(built, dft ? "failed" : m.goal, t, objective);
        }
      }
    } else if (m.kind == ModelKind::CtmdpFile) {
      const unicon::Ctmdp model = unicon::io::read_ctmdp(source);
      const unicon::BitVector goal = unicon::io::read_goal(labels, model.num_states());
      for (const double t : m.grid) {
        for (const Objective objective : kObjectives) {
          const auto r = unicon::timed_reachability(model, goal, t, reference_options(objective));
          refs.values[value_key(m.name, t, objective)] = r.values[model.initial()];
        }
      }
    } else {
      const unicon::Ctmc chain = unicon::io::read_ctmc(source);
      const unicon::BitVector goal = unicon::io::read_goal(labels, chain.num_states());
      unicon::TransientOptions options;
      options.epsilon = kReferenceEpsilon;
      options.backend = unicon::Backend::Serial;
      options.threads = 1;
      for (const double t : m.grid) {
        const auto r = unicon::timed_reachability(chain, goal, t, options);
        for (const Objective objective : kObjectives) {
          refs.values[value_key(m.name, t, objective)] = r.probabilities[chain.initial()];
        }
      }
    }
    std::fprintf(stderr, "%s done\n", m.name.c_str());
  }

  refs.write(path);
  std::fprintf(stderr, "wrote %zu answers and %zu counts to %s\n", refs.values.size(),
               refs.counts.size(), path.c_str());
}

}  // namespace perfbench
