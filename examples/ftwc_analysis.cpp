// FTWC worst-case analysis (the paper's Sec. 5 study as a CLI).
//
// Usage: ftwc_analysis [N] [t_hours] [direct|compositional]
//
// Builds the fault-tolerant workstation cluster with N workstations per
// sub-cluster, transforms the uniform IMC into a uniform CTMDP and computes
// the worst-case probability that premium service is not guaranteed within
// t hours, together with the optimal repair policy's first decisions.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/analysis.hpp"
#include "ftwc/compositional.hpp"
#include "ftwc/direct.hpp"

using namespace unicon;

int main(int argc, char** argv) {
  unsigned n = 4;
  double t = 100.0;
  bool compositional = false;
  if (argc > 1) n = static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10));
  if (argc > 2) t = std::strtod(argv[2], nullptr);
  if (argc > 3) compositional = std::strcmp(argv[3], "compositional") == 0;

  ftwc::Parameters params;
  params.n = n;

  Imc model;
  BitVector goal;
  double rate = 0.0;
  if (compositional) {
    std::printf("building FTWC N=%u compositionally (elapse + parallel + minimize)...\n", n);
    const auto built = ftwc::build_compositional(params);
    for (const auto& stage : built.stages) {
      std::printf("  stage %-16s: %zu states (pre-minimization: %zu)\n", stage.stage.c_str(),
                  stage.states, stage.states_before_minimization);
    }
    model = built.uimc;
    goal = built.goal;
    rate = built.uniform_rate;
  } else {
    std::printf("building FTWC N=%u by direct state-space generation...\n", n);
    auto built = ftwc::build_direct(params);
    model = std::move(built.uimc);
    goal = std::move(built.goal);
    rate = built.uniform_rate;
  }

  std::printf("closed uIMC: %zu states, %zu interactive + %zu Markov transitions, E = %.6f\n",
              model.num_states(), model.num_interactive_transitions(),
              model.num_markov_transitions(), rate);

  UimcAnalysisOptions options;
  options.reachability.epsilon = 1e-6;
  options.reachability.extract_scheduler = true;
  const UimcAnalysisResult result = analyze_timed_reachability(model, goal, t, options);

  std::printf("uCTMDP: %zu states, %zu transitions (%.2f MB), transformed in %.2f s\n",
              result.transformed.stats.interactive_states,
              result.transformed.stats.interactive_transitions,
              static_cast<double>(result.transformed.stats.memory_bytes) / (1024.0 * 1024.0),
              result.transformed.stats.seconds);
  std::printf("Algorithm 1: k = %llu iterations at epsilon 1e-6\n",
              static_cast<unsigned long long>(result.reachability.iterations_planned));
  std::printf("\nworst-case P(premium service lost within %.0f h) = %.8f\n", t, result.value);

  // Show a few optimal first decisions: what should the repair unit grab?
  std::printf("\noptimal first decisions (sample):\n");
  const Ctmdp& ctmdp = result.transformed.ctmdp;
  int shown = 0;
  for (StateId s = 0; s < ctmdp.num_states() && shown < 8; ++s) {
    if (ctmdp.num_transitions_of(s) < 2) continue;  // no real decision
    const std::uint64_t choice = result.reachability.initial_decision[s];
    if (choice == kNoTransition) continue;
    std::printf("  ctmdp state %-6u: take '%s'\n", s,
                ctmdp.words().str(ctmdp.label(choice), ctmdp.actions()).c_str());
    ++shown;
  }
  return 0;
}
