// Reproduces Figure 4 of the paper: worst-case probabilities from the
// CTMDP analysis vs. the probabilities of the CTMC approximation (repair
// decisions as high-rate races), for a small and a large N, over mission
// time t.  The CTMC consistently *over*estimates.
//
// Default: N = 4 and N = 8; FTWC_FULL=1 uses N = 4 and N = 128 as in the
// paper (significantly slower — the *CTMC* side is stiff, see below).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/analysis.hpp"
#include "ctmc/transient.hpp"
#include "ftwc/ctmc_variant.hpp"
#include "ftwc/direct.hpp"

using namespace unicon;

namespace {

// The CTMC side is stiff: its uniformization rate is dominated by the
// artificial decision rate Gamma, so lambda = Gamma * t, and every point
// runs its whole Poisson window (the chain mixes too slowly for the
// Lyapunov fold, and none of its live rows locks).  Each long-horizon point
// on a large instance takes minutes — which is itself a point the paper
// makes in favour of the nondeterministic model.
void series(unsigned n, const std::vector<double>& horizons) {
  ftwc::Parameters params;
  params.n = n;

  const auto faithful = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(faithful.uimc, &faithful.goal);
  const auto approx = ftwc::build_ctmc_variant(params);

  std::printf("\nFTWC N=%u  (CTMDP: %zu states / %zu transitions, CTMC: %zu states, Gamma=%g)\n",
              n, transformed.ctmdp.num_states(), transformed.ctmdp.num_transitions(),
              approx.ctmc.num_states(), params.decision_rate);
  std::printf("%10s  %16s  %16s  %12s\n", "t (h)", "CTMDP worst", "CTMC approx", "overest.");

  for (double t : horizons) {
    TimedReachabilityOptions mdp_options;
    mdp_options.epsilon = 1e-6;
    const auto worst = timed_reachability(transformed.ctmdp, transformed.goal, t, mdp_options);
    const double p_mdp = worst.values[transformed.ctmdp.initial()];

    TransientOptions ctmc_options;
    ctmc_options.epsilon = 1e-6;
    const auto ctmc = timed_reachability(approx.ctmc, approx.goal, t, ctmc_options);
    const double p_ctmc = ctmc.probabilities[approx.ctmc.initial()];

    std::printf("%10.0f  %16.8f  %16.8f  %+12.3e\n", t, p_mdp, p_ctmc, p_ctmc - p_mdp);
    std::fflush(stdout);
  }
}

}  // namespace

int main() {
  const bool full = bench::full_sweep();
  std::printf("Figure 4 — worst-case CTMDP probability vs CTMC approximation\n");
  if (!full) {
    std::printf("(default: N=4 and N=8; FTWC_FULL=1 for the paper's N=4 and N=128)\n");
  }

  const std::vector<double> horizons{10, 50, 100, 500, 1000, 5000, 10000, 30000};
  const std::vector<double> short_horizons{10, 50, 100, 500, 1000};
  series(4, horizons);
  series(full ? 128 : 8, full ? horizons : short_horizons);

  std::printf(
      "\nAs in the paper, the CTMC overestimates at every horizon: the high-rate\n"
      "races admit (low-probability) failure paths that cannot occur when the\n"
      "repair unit is assigned nondeterministically and urgently.\n");
  return 0;
}
