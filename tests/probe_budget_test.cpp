// The default solver path (DESIGN.md Sec. 10 and 14.2):
//  * Backend::Auto resolves to the dense Simd kernel unless UNICON_BACKEND
//    overrides it,
//  * the Lyapunov certificate probes only while the survival sweeps a
//    horizon has paid for are fewer than the sweeps a stop could still
//    skip.  The rule depends on the step alone, so a certificate that never
//    fires leaves the solve bitwise the Fox-Glynn solve at epsilon/2, and
//    batch, single-t and resumed solves stay bitwise equal.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/transform.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "ftwc/ctmc_variant.hpp"
#include "ftwc/direct.hpp"
#include "support/backend.hpp"
#include "support/run_guard.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace unicon {
namespace {

using testutil::ScopedBackendEnv;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << " differs at index " << i << ": " << a[i]
                                      << " vs " << b[i];
  }
}

/// FTWC N=4 on the direct route as its transformed uniform CTMDP: the
/// long-horizon benchmark model.  It mixes slowly (ubar stays near 1), so
/// at t = 1500 the auto plan engages a certificate that cannot fire.
struct FtwcCtmdp {
  Ctmdp model;
  BitVector goal;
};

const FtwcCtmdp& ftwc4() {
  static const FtwcCtmdp built = [] {
    ftwc::Parameters params;
    params.n = 4;
    const ftwc::DirectResult direct = ftwc::build_direct(params);
    TransformResult transformed = transform_to_ctmdp(direct.uimc, &direct.goal);
    return FtwcCtmdp{std::move(transformed.ctmdp), std::move(transformed.goal)};
  }();
  return built;
}

constexpr double kFtwcLongT = 1500.0;

/// Two non-goal states leaking into the goal (state 2) at uniform rate 4;
/// state 0 may leak at rate 1 or 0.5, so survival contracts by 7/8 per
/// jump.  A long horizon certifies a few sweeps below its window; a short
/// one runs out of probe budget first.
Ctmdp leak_model() {
  CtmdpBuilder b;
  b.ensure_states(3);
  b.set_initial(0);
  b.begin_transition(0, "a");
  b.add_rate(2, 1.0);
  b.add_rate(1, 3.0);
  b.begin_transition(0, "b");
  b.add_rate(2, 0.5);
  b.add_rate(1, 3.5);
  b.begin_transition(1, "a");
  b.add_rate(2, 1.0);
  b.add_rate(0, 3.0);
  b.begin_transition(2, "a");
  b.add_rate(2, 4.0);
  return b.build();
}

BitVector last_state_goal(std::size_t n) {
  BitVector goal(n);
  goal.set(n - 1);
  return goal;
}

// ----------------------------------------------------------- default backend

TEST(DefaultBackend, AutoResolvesToSimdUnlessOverridden) {
  {
    const ScopedBackendEnv unset(nullptr);
    EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Simd);
    EXPECT_EQ(resolve_backend(Backend::Serial), Backend::Serial);
  }
  {
    const ScopedBackendEnv serial("serial");
    EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Serial);
  }
  {
    const ScopedBackendEnv no_override("auto");
    EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Simd);
  }
}

TEST(DefaultBackend, AutoFtwcSolveIsTheSimdSolve) {
  const ScopedBackendEnv unset(nullptr);
  const FtwcCtmdp& m = ftwc4();
  TimedReachabilityOptions automatic;
  automatic.threads = 1;
  TimedReachabilityOptions simd = automatic;
  simd.backend = Backend::Simd;
  for (const double t : {100.0, kFtwcLongT}) {
    SCOPED_TRACE("t " + std::to_string(t));
    const auto a = timed_reachability(m.model, m.goal, t, automatic);
    const auto s = timed_reachability(m.model, m.goal, t, simd);
    expect_bitwise(a.values, s.values, "values");
    EXPECT_EQ(bits(a.residual_bound), bits(s.residual_bound));
    EXPECT_EQ(a.iterations_planned, s.iterations_planned);
    EXPECT_EQ(a.iterations_executed, s.iterations_executed);
    EXPECT_EQ(a.state_updates, s.state_updates);
    EXPECT_EQ(a.lyapunov_probes, s.lyapunov_probes);
  }
}

// ---------------------------------------------------- probe budget: CTMDP

TEST(ProbeBudget, FtwcCertificateThatNeverFiresCostsNoSweeps) {
  // Window left ~2,750 at t = 1500: the budget admits ages below ~left/2,
  // the certificate never fires there, and every planned sweep runs — on
  // the exact Fox-Glynn schedule at epsilon/2, bit for bit.
  const FtwcCtmdp& m = ftwc4();
  for (const Backend backend : {Backend::Serial, Backend::Simd}) {
    SCOPED_TRACE(backend_name(backend));
    TimedReachabilityOptions options;
    options.backend = backend;
    options.threads = 1;
    const auto run = timed_reachability(m.model, m.goal, kFtwcLongT, options);
    ASSERT_EQ(run.truncation, Truncation::Lyapunov);
    EXPECT_EQ(run.k_lyapunov, 0u);
    EXPECT_GT(run.lyapunov_probes, 0u);
    EXPECT_LE(run.lyapunov_probes, 1375u);
    EXPECT_EQ(run.iterations_executed, run.iterations_planned);

    TimedReachabilityOptions fox = options;
    fox.truncation = Truncation::FoxGlynn;
    fox.epsilon = 5e-7;
    const auto reference = timed_reachability(m.model, m.goal, kFtwcLongT, fox);
    EXPECT_EQ(reference.lyapunov_probes, 0u);
    EXPECT_EQ(run.iterations_planned, reference.iterations_planned);
    EXPECT_EQ(run.iterations_executed, reference.iterations_executed);
    EXPECT_EQ(bits(run.residual_bound), bits(reference.residual_bound));
    expect_bitwise(run.values, reference.values, "values");
  }
}

TEST(ProbeBudget, CtmdpBatchMixingFiringAndCappedHorizonsMatchesSingle) {
  // One horizon long enough for the certificate to fire (t = 400, left
  // ~1,400) next to a short one (t = 20, left ~40) whose budget ends before
  // its certificate could: each keeps its own probe budget inside the
  // fused batch.
  const Ctmdp model = leak_model();
  const BitVector goal = last_state_goal(model.num_states());
  const std::vector<double> times = {20.0, 400.0};
  TimedReachabilityOptions options;
  options.truncation = Truncation::Lyapunov;
  for (const Backend backend : {Backend::Serial, Backend::Simd}) {
    SCOPED_TRACE(backend_name(backend));
    options.backend = backend;
    // One objective per backend keeps both covered.
    options.objective =
        backend == Backend::Serial ? Objective::Maximize : Objective::Minimize;
    const auto batch = timed_reachability_batch(model, goal, times, options);
    ASSERT_EQ(batch.size(), times.size());
    for (std::size_t j = 0; j < times.size(); ++j) {
      SCOPED_TRACE("t " + std::to_string(times[j]));
      const auto single = timed_reachability(model, goal, times[j], options);
      ASSERT_EQ(single.truncation, Truncation::Lyapunov);
      EXPECT_GT(single.lyapunov_probes, 0u);
      expect_bitwise(batch[j].values, single.values, "values");
      EXPECT_EQ(bits(batch[j].residual_bound), bits(single.residual_bound));
      EXPECT_EQ(batch[j].iterations_executed, single.iterations_executed);
      EXPECT_EQ(batch[j].k_lyapunov, single.k_lyapunov);
      EXPECT_EQ(batch[j].lyapunov_probes, single.lyapunov_probes);
    }
    EXPECT_EQ(batch[0].k_lyapunov, 0u);  // capped by the budget
    EXPECT_EQ(batch[0].iterations_executed, batch[0].iterations_planned);
    EXPECT_GT(batch[1].k_lyapunov, 0u);  // certified stop
    EXPECT_LT(batch[1].iterations_executed, batch[1].iterations_planned);
  }
}

TEST(ProbeBudget, ResumePastTheCutoffSkipsTheSurvivalCatchUp) {
  // Interrupt FTWC t = 1500 once below its window but inside the budget
  // (g ~ 2,300), and again past the cutoff (g ~ 1,000 < left/2).  Both
  // resumes reproduce the uninterrupted values bitwise; the second never
  // replays the survival sweeps it could no longer use.
  const FtwcCtmdp& m = ftwc4();
  TimedReachabilityOptions options;
  options.backend = Backend::Simd;
  options.threads = 1;
  const auto reference = timed_reachability(m.model, m.goal, kFtwcLongT, options);
  ASSERT_EQ(reference.truncation, Truncation::Lyapunov);
  ASSERT_GT(reference.lyapunov_probes, 0u);
  const std::uint64_t k = reference.iterations_planned;
  ASSERT_GT(k, 2500u);

  for (const std::uint64_t resume_step : {std::uint64_t{2300}, std::uint64_t{1000}}) {
    SCOPED_TRACE("resume at step " + std::to_string(resume_step));
    RunGuard guard;
    guard.cancel_after_polls(k - resume_step);
    TimedReachabilityOptions guarded = options;
    guarded.guard = &guard;
    const auto partial = timed_reachability(m.model, m.goal, kFtwcLongT, guarded);
    ASSERT_EQ(partial.status, RunStatus::Cancelled);

    TimedReachabilityOptions resume_options = options;
    resume_options.resume = &partial;
    const auto resumed = timed_reachability(m.model, m.goal, kFtwcLongT, resume_options);
    ASSERT_EQ(resumed.status, RunStatus::Converged);
    expect_bitwise(resumed.values, reference.values, "values");
    EXPECT_EQ(bits(resumed.residual_bound), bits(reference.residual_bound));
    EXPECT_EQ(resumed.iterations_executed, reference.iterations_executed);
    if (resume_step == 1000) {
      EXPECT_EQ(resumed.lyapunov_probes, 0u);
    } else {
      EXPECT_EQ(resumed.lyapunov_probes, reference.lyapunov_probes);
    }
  }
}

TEST(ProbeBudget, ProbeMetricOnlyOnEngagedSolves) {
  const Ctmdp model = leak_model();
  const BitVector goal = last_state_goal(model.num_states());
  for (const double t : {2.0, 400.0}) {
    Telemetry telemetry;
    TimedReachabilityOptions options;
    options.telemetry = &telemetry;
    const auto run = timed_reachability(model, goal, t, options);
    const bool has_metric =
        telemetry.to_json().find("\"truncation.probes\": ") != std::string::npos;
    EXPECT_EQ(has_metric, run.truncation == Truncation::Lyapunov) << "t " << t;
  }
}

// ----------------------------------------------------- probe budget: CTMC

/// Two transient states swapping at rate 2 with a rate-1e-3 leak into the
/// goal: survival barely contracts, so the fold can never fire.
Ctmc slow_leak_chain() {
  CtmcBuilder b(3);
  b.add_transition(0, 2.0, 1);
  b.add_transition(1, 2.0, 0);
  b.add_transition(1, 1e-3, 2);
  b.set_initial(0);
  return b.build();
}

/// Two transient states leaking into the goal at a quarter of the uniform
/// rate: survival contracts by exactly 3/4 per jump.
Ctmc quarter_leak_chain() {
  CtmcBuilder b(3);
  b.add_transition(0, 3.0, 1);
  b.add_transition(0, 1.0, 2);
  b.add_transition(1, 3.0, 0);
  b.add_transition(1, 1.0, 2);
  b.set_initial(0);
  return b.build();
}

/// A stiff chain: state 0 leaks into the goal (state 3) at rate 1e-3, next
/// to a rate-200 race between states 1 and 2.  The race sets the uniform
/// rate, so state 0 keeps 1 - 5e-6 of its survival per jump: over any probe
/// budget the fold test tail * ubar <= epsilon/2 stays out of reach.
Ctmc stiff_leak_chain() {
  CtmcBuilder b(4);
  b.add_transition(0, 1e-3, 3);
  b.add_transition(1, 200.0, 2);
  b.add_transition(2, 200.0, 1);
  b.add_transition(2, 1.0, 3);
  b.set_initial(0);
  return b.build();
}

TEST(ProbeBudget, CtmcGateSkipsEveryProbeOfAFoldThatCannotFire) {
  struct Case {
    const char* name;
    Ctmc chain;
    BitVector goal;
    double t;
  };
  ftwc::Parameters params;
  params.n = 2;
  ftwc::CtmcResult ftwc2 = ftwc::build_ctmc_variant(params);
  const Ctmc stiff = stiff_leak_chain();
  const Case cases[] = {
      {"stiff leak", stiff, last_state_goal(stiff.num_states()), 10.0},
      {"ftwc ctmc N=2", std::move(ftwc2.ctmc), std::move(ftwc2.goal), 5.0},
  };
  for (const Case& c : cases) {
    for (const Backend backend : {Backend::Serial, Backend::Simd}) {
      SCOPED_TRACE(std::string(c.name) + " " + backend_name(backend));
      TransientOptions options;
      options.backend = backend;
      const auto run = timed_reachability(c.chain, c.goal, c.t, options);
      ASSERT_EQ(run.truncation, Truncation::Lyapunov);
      EXPECT_EQ(run.lyapunov_probes, 0u);
      EXPECT_EQ(run.k_lyapunov, 0u);

      TransientOptions fox = options;
      fox.truncation = Truncation::FoxGlynn;
      fox.epsilon = options.epsilon / 2.0;
      const auto reference = timed_reachability(c.chain, c.goal, c.t, fox);
      EXPECT_EQ(run.iterations, reference.iterations);
      EXPECT_EQ(run.iterations_executed, reference.iterations_executed);
      EXPECT_EQ(bits(run.residual_bound), bits(reference.residual_bound));
      expect_bitwise(run.probabilities, reference.probabilities, "probabilities");
    }
  }
}

TEST(ProbeBudget, CtmcFoldThatNeverFiresIsTheFoxGlynnSolve) {
  const Ctmc chain = slow_leak_chain();
  const BitVector goal = last_state_goal(chain.num_states());
  const double t = 1000.0;  // lambda ~2,000: auto engages
  for (const Backend backend : {Backend::Serial, Backend::Simd}) {
    SCOPED_TRACE(backend_name(backend));
    TransientOptions options;
    options.backend = backend;
    const auto run = timed_reachability(chain, goal, t, options);
    ASSERT_EQ(run.truncation, Truncation::Lyapunov);
    EXPECT_EQ(run.k_lyapunov, 0u);
    EXPECT_GT(run.lyapunov_probes, 0u);
    EXPECT_LT(2 * run.lyapunov_probes, run.iterations);  // the budget: about right/2
    EXPECT_EQ(run.iterations_executed, run.iterations);

    TransientOptions fox = options;
    fox.truncation = Truncation::FoxGlynn;
    fox.epsilon = 5e-7;
    const auto reference = timed_reachability(chain, goal, t, fox);
    EXPECT_EQ(run.iterations, reference.iterations);
    EXPECT_EQ(run.iterations_executed, reference.iterations_executed);
    EXPECT_EQ(bits(run.residual_bound), bits(reference.residual_bound));
    expect_bitwise(run.probabilities, reference.probabilities, "probabilities");
  }
}

TEST(ProbeBudget, CtmcBatchMixingFiringAndCappedHorizonsMatchesSingle) {
  // The long horizon folds after ~50 probes; the short one (lambda = 40)
  // would need more probes than half its window, so its budget ends first
  // and it runs its window out.
  const Ctmc chain = quarter_leak_chain();
  const BitVector goal = last_state_goal(chain.num_states());
  const std::vector<double> times = {10.0, 400.0};
  TransientOptions options;
  options.truncation = Truncation::Lyapunov;
  for (const Backend backend : {Backend::Serial, Backend::Simd}) {
    SCOPED_TRACE(backend_name(backend));
    options.backend = backend;
    const auto batch = timed_reachability_batch(chain, goal, times, options);
    ASSERT_EQ(batch.size(), times.size());
    for (std::size_t j = 0; j < times.size(); ++j) {
      SCOPED_TRACE("t " + std::to_string(times[j]));
      const auto single = timed_reachability(chain, goal, times[j], options);
      ASSERT_EQ(single.truncation, Truncation::Lyapunov);
      EXPECT_GT(single.lyapunov_probes, 0u);
      expect_bitwise(batch[j].probabilities, single.probabilities, "probabilities");
      EXPECT_EQ(bits(batch[j].residual_bound), bits(single.residual_bound));
      EXPECT_EQ(batch[j].iterations_executed, single.iterations_executed);
      EXPECT_EQ(batch[j].k_lyapunov, single.k_lyapunov);
      EXPECT_EQ(batch[j].lyapunov_probes, single.lyapunov_probes);
    }
    EXPECT_EQ(batch[0].k_lyapunov, 0u);  // capped by the budget
    EXPECT_EQ(batch[0].iterations_executed, batch[0].iterations);
    EXPECT_GT(batch[1].k_lyapunov, 0u);  // folded
    EXPECT_LT(batch[1].iterations_executed, batch[1].iterations);
  }
}

}  // namespace
}  // namespace unicon
