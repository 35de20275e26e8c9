// Batch-equivalence property suite: every answer of a multi-horizon batch
// solve must be *bitwise identical* to an independent single-t run — values,
// residual bounds, iteration counts, scheduler tables — across backends and
// thread counts (the batch fuses horizons around per-horizon arithmetic, so
// this is testable exact equality, not a tolerance check).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ctmc/transient.hpp"
#include "ctmdp/backend.hpp"
#include "ctmdp/reachability.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/run_guard.hpp"
#include "testing/generate.hpp"
#include "testing/oracle.hpp"

namespace unicon {
namespace {

namespace gen = unicon::testing;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << " differs at index " << i << ": " << a[i]
                                      << " vs " << b[i];
  }
}

void expect_same_result(const TimedReachabilityResult& batch,
                        const TimedReachabilityResult& single) {
  expect_bitwise(batch.values, single.values, "values");
  ASSERT_EQ(bits(batch.residual_bound), bits(single.residual_bound));
  ASSERT_EQ(batch.iterations_planned, single.iterations_planned);
  ASSERT_EQ(batch.iterations_executed, single.iterations_executed);
  ASSERT_EQ(bits(batch.uniform_rate), bits(single.uniform_rate));
  ASSERT_EQ(bits(batch.lambda), bits(single.lambda));
  ASSERT_EQ(batch.status, single.status);
  ASSERT_EQ(batch.initial_decision, single.initial_decision);
  ASSERT_EQ(batch.decisions, single.decisions);
}

std::vector<Backend> backends_under_test() {
  return {Backend::Serial, Backend::Simd, Backend::SimdPortable};
}

TEST(BatchTest, CtmdpBatchMatchesSingleRunsBitwise) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(derive_seed(0xba7c4u, seed));
    gen::RandomCtmdpConfig config;
    config.num_states = 20 + seed * 4;
    config.uniform_rate = 2.0;
    Ctmdp model = gen::random_uniform_ctmdp(rng, config);
    const BitVector goal = gen::random_goal(rng, model.num_states(), 0.3);

    // Unsorted, with duplicates and a zero: results must come back in
    // input order regardless of the internal bottom-aligned fusion.
    const std::vector<double> times = {2.5, 0.5, 4.0, 0.5, 0.0, 1.25};

    for (Backend backend : backends_under_test()) {
      for (unsigned threads : {1u, 3u}) {
        TimedReachabilityOptions options;
        options.backend = backend;
        options.threads = threads;
        options.objective = seed % 2 == 0 ? Objective::Minimize : Objective::Maximize;
        options.extract_scheduler = true;
        if (seed % 3 == 0) options.avoid = gen::random_goal(rng, model.num_states(), 0.15);

        const auto batch = timed_reachability_batch(model, goal, times, options);
        ASSERT_EQ(batch.size(), times.size());
        for (std::size_t j = 0; j < times.size(); ++j) {
          const auto single = timed_reachability(model, goal, times[j], options);
          SCOPED_TRACE("seed " + std::to_string(seed) + " backend " +
                       std::string(backend_name(backend)) + " threads " +
                       std::to_string(threads) + " t " + std::to_string(times[j]));
          expect_same_result(batch[j], single);
        }
      }
    }
  }
}

/// One batch against its independent single-t runs, bitwise.
void expect_batch_matches_singles(const Ctmdp& model, const BitVector& goal,
                                  const std::vector<double>& times,
                                  const TimedReachabilityOptions& options) {
  const auto batch = timed_reachability_batch(model, goal, times, options);
  ASSERT_EQ(batch.size(), times.size());
  for (std::size_t j = 0; j < times.size(); ++j) {
    SCOPED_TRACE("t " + std::to_string(times[j]));
    expect_same_result(batch[j], timed_reachability(model, goal, times[j], options));
  }
}

// An extracting solve runs the serial rows whatever the backend, so the two
// cases above reach the dense engine only through these twins without
// extraction: avoid sets, unsorted, duplicate and zero horizons, and the
// exact-fixpoint break on the simd rows.
TEST(BatchTest, DenseBatchWithoutExtractionMatchesSingleRunsBitwise) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(derive_seed(0xde75eu, seed));
    gen::RandomCtmdpConfig config;
    config.num_states = 20 + seed * 4;
    config.uniform_rate = 2.0;
    const Ctmdp model = gen::random_uniform_ctmdp(rng, config);
    const BitVector goal = gen::random_goal(rng, model.num_states(), 0.3);
    const BitVector avoid =
        seed % 3 == 0 ? gen::random_goal(rng, model.num_states(), 0.15) : BitVector{};
    for (Backend backend : {Backend::Simd, Backend::SimdPortable}) {
      for (unsigned threads : {1u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " backend " +
                     std::string(backend_name(backend)) + " threads " +
                     std::to_string(threads));
        TimedReachabilityOptions options;
        options.backend = backend;
        options.threads = threads;
        options.objective = seed % 2 == 0 ? Objective::Minimize : Objective::Maximize;
        options.avoid = avoid;
        expect_batch_matches_singles(model, goal, {2.5, 0.5, 4.0, 0.5, 0.0, 1.25}, options);
      }
    }
  }
}

TEST(BatchTest, DenseBatchFixpointBreakMatchesSingle) {
  Rng rng(0x5eedu);
  gen::RandomCtmdpConfig config;
  config.num_states = 24;
  config.uniform_rate = 3.0;
  config.absorbing_density = 0.3;
  const Ctmdp model = gen::random_uniform_ctmdp(rng, config);
  const BitVector goal = gen::random_goal(rng, model.num_states(), 0.25);
  for (Backend backend : {Backend::Simd, Backend::SimdPortable}) {
    SCOPED_TRACE("backend " + std::string(backend_name(backend)));
    TimedReachabilityOptions options;
    options.backend = backend;
    options.threads = 2;
    // The break must fire, or this case would not exercise it.
    const auto longest = timed_reachability(model, goal, 30.0, options);
    EXPECT_TRUE(longest.exact_fixpoint);
    EXPECT_LT(longest.iterations_executed, longest.iterations_planned);
    expect_batch_matches_singles(model, goal, {30.0, 6.0, 12.0, 1.0}, options);
  }
}

TEST(BatchTest, CtmdpBatchGuardStopYieldsSoundResumablePartials) {
  Rng rng(0x90afu);
  gen::RandomCtmdpConfig config;
  config.num_states = 18;
  config.uniform_rate = 2.0;
  Ctmdp model = gen::random_uniform_ctmdp(rng, config);
  const BitVector goal = gen::random_goal(rng, model.num_states(), 0.25);
  const std::vector<double> times = {5.0, 1.0, 3.0};

  for (Backend backend : {Backend::Serial, Backend::SimdPortable}) {
    TimedReachabilityOptions options;
    options.backend = backend;
    options.threads = 1;

    RunGuard guard;
    guard.cancel_after_polls(4);
    TimedReachabilityOptions guarded = options;
    guarded.guard = &guard;
    const auto batch = timed_reachability_batch(model, goal, times, guarded);

    bool saw_partial = false;
    for (std::size_t j = 0; j < times.size(); ++j) {
      const auto single = timed_reachability(model, goal, times[j], options);
      if (batch[j].status == RunStatus::Converged) {
        expect_bitwise(batch[j].values, single.values, "converged horizon values");
        continue;
      }
      saw_partial = true;
      EXPECT_EQ(batch[j].status, RunStatus::Cancelled);
      EXPECT_EQ(batch[j].iterate.size(), model.num_states());
      // The per-horizon residual bound must cover the distance to the
      // fully converged answer.
      for (std::size_t s = 0; s < model.num_states(); ++s) {
        EXPECT_LE(std::abs(batch[j].values[s] - single.values[s]),
                  batch[j].residual_bound + 1e-12);
      }
      // The interrupted horizon's iterate is exactly the single run's at
      // the same step, so resuming it must land bitwise on the
      // uninterrupted answer.
      TimedReachabilityOptions resume_options = options;
      resume_options.resume = &batch[j];
      const auto resumed = timed_reachability(model, goal, times[j], resume_options);
      expect_bitwise(resumed.values, single.values, "resumed values");
    }
    EXPECT_TRUE(saw_partial);
  }
}

TEST(BatchTest, CtmdpBatchAcceptsInjectedKernels) {
  Rng rng(0x7e57u);
  Ctmdp model = gen::random_uniform_ctmdp(rng);
  const BitVector goal = gen::random_goal(rng, model.num_states(), 0.3);
  const std::vector<double> times = {1.0, 2.0};

  const DiscreteKernel discrete(model, goal);
  const DenseKernel dense(model, goal, BitVector{});

  for (Backend backend : backends_under_test()) {
    TimedReachabilityOptions plain;
    plain.backend = backend;
    TimedReachabilityOptions injected = plain;
    injected.discrete_kernel = &discrete;
    injected.dense_kernel = &dense;
    const auto a = timed_reachability_batch(model, goal, times, plain);
    const auto b = timed_reachability_batch(model, goal, times, injected);
    for (std::size_t j = 0; j < times.size(); ++j) {
      expect_bitwise(a[j].values, b[j].values, "injected-kernel values");
    }
    // Single-horizon runs accept the same cached kernels.
    const auto s1 = timed_reachability(model, goal, times[0], plain);
    const auto s2 = timed_reachability(model, goal, times[0], injected);
    expect_bitwise(s1.values, s2.values, "injected-kernel single values");
  }
}

TEST(BatchTest, CtmdpBatchRejectsBadInputs) {
  Rng rng(0xbadu);
  Ctmdp model = gen::random_uniform_ctmdp(rng);
  const BitVector goal = gen::random_goal(rng, model.num_states(), 0.3);

  EXPECT_TRUE(timed_reachability_batch(model, goal, {}).empty());
  EXPECT_THROW(timed_reachability_batch(model, goal, {1.0, -2.0}), ModelError);

  TimedReachabilityResult partial;
  partial.status = RunStatus::Cancelled;
  partial.iterate.assign(model.num_states(), 0.0);
  TimedReachabilityOptions options;
  options.resume = &partial;
  EXPECT_THROW(timed_reachability_batch(model, goal, {1.0}, options), ModelError);

  const DiscreteKernel other_kernel(Ctmdp{}, BitVector{});
  TimedReachabilityOptions bad_kernel;
  bad_kernel.backend = Backend::Serial;
  bad_kernel.discrete_kernel = &other_kernel;
  EXPECT_THROW(timed_reachability_batch(model, goal, {1.0}, bad_kernel), ModelError);
}

TEST(BatchTest, CtmdpBatchPublishesEveryHorizonsCheckpoints) {
  // Each horizon publishes what its single-t run publishes: its own
  // full-state iterate at every due step, under its own planned count.
  // A pure observer drops locks at most, so values stay bitwise.
  Rng rng(0xc4e7u);
  gen::RandomCtmdpConfig config;
  config.num_states = 16;
  Ctmdp model = gen::random_uniform_ctmdp(rng, config);
  const BitVector goal = gen::random_goal(rng, model.num_states(), 0.3);
  const std::vector<double> times = {3.0, 1.0};

  for (Backend backend : backends_under_test()) {
    TimedReachabilityOptions options;
    options.backend = backend;
    const auto clean = timed_reachability_batch(model, goal, times, options);

    RunGuard guard;
    std::vector<std::uint64_t> published(times.size(), 0);
    guard.set_checkpoint([&](const RunCheckpoint& cp) {
      EXPECT_EQ(cp.values.size(), model.num_states());
      for (std::size_t j = 0; j < times.size(); ++j) {
        if (cp.planned == clean[j].iterations_planned) ++published[j];
      }
    });
    options.guard = &guard;
    const auto observed = timed_reachability_batch(model, goal, times, options);
    for (std::size_t j = 0; j < times.size(); ++j) {
      SCOPED_TRACE("backend " + std::string(backend_name(backend)) + " t " +
                   std::to_string(times[j]));
      EXPECT_EQ(published[j], observed[j].iterations_executed);
      expect_bitwise(observed[j].values, clean[j].values, "observed values");
    }
  }
}

TEST(BatchTest, CtmdpBatchValuesAgreeWithDenseOracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(derive_seed(0x0aacu, seed));
    gen::RandomCtmdpConfig config;
    config.num_states = 12;
    Ctmdp model = gen::random_uniform_ctmdp(rng, config);
    const BitVector goal = gen::random_goal(rng, model.num_states(), 0.3);
    const std::vector<double> times = {0.75, 2.0, 3.5};
    TimedReachabilityOptions options;
    options.epsilon = 1e-9;
    const auto batch = timed_reachability_batch(model, goal, times, options);
    const gen::DenseModel dense = gen::dense_from_ctmdp(model);
    for (std::size_t j = 0; j < times.size(); ++j) {
      const auto oracle = gen::naive_timed_reachability(dense, goal, times[j], 1e-12);
      for (std::size_t s = 0; s < model.num_states(); ++s) {
        EXPECT_NEAR(batch[j].values[s], oracle[s], 1e-7);
      }
    }
  }
}

TEST(BatchTest, CtmcBatchMatchesSingleRunsBitwise) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(derive_seed(0xc7dcu, seed));
    gen::RandomCtmcConfig config;
    config.num_states = 20 + seed * 3;
    Ctmc chain = gen::random_ctmc(rng, config);
    const BitVector goal = gen::random_goal(rng, chain.num_states(), 0.3);
    const std::vector<double> times = {3.0, 0.5, 3.0, 0.0, 1.75};

    for (Backend backend : backends_under_test()) {
      for (unsigned threads : {1u, 3u}) {
        TransientOptions options;
        options.backend = backend;
        options.threads = threads;
        const auto batch = timed_reachability_batch(chain, goal, times, options);
        ASSERT_EQ(batch.size(), times.size());
        for (std::size_t j = 0; j < times.size(); ++j) {
          const auto single = timed_reachability(chain, goal, times[j], options);
          SCOPED_TRACE("seed " + std::to_string(seed) + " backend " +
                       std::string(backend_name(backend)) + " threads " +
                       std::to_string(threads) + " t " + std::to_string(times[j]));
          expect_bitwise(batch[j].probabilities, single.probabilities, "probabilities");
          ASSERT_EQ(bits(batch[j].residual_bound), bits(single.residual_bound));
          ASSERT_EQ(batch[j].iterations, single.iterations);
          ASSERT_EQ(batch[j].iterations_executed, single.iterations_executed);
          ASSERT_EQ(batch[j].status, single.status);
        }
      }
    }
  }
}

// ------------------------- certificate stops inside a fused batch

/// Fast-absorbing drift model: survival contracts geometrically, so the
/// Lyapunov certificate stops each horizon a few dozen steps below its
/// Poisson window (see the truncation tests in reachability_test.cpp).
Ctmdp batch_drift_model(std::size_t n) {
  CtmdpBuilder b;
  b.ensure_states(n);
  b.set_initial(0);
  const StateId goal = static_cast<StateId>(n - 1);
  for (StateId s = 0; s + 1 < n; ++s) {
    b.begin_transition(s, "a");
    b.add_rate(goal, 3.0);
    b.add_rate(std::min<StateId>(s + 1, goal), 1.0);
    b.begin_transition(s, "b");
    b.add_rate(goal, 2.5);
    b.add_rate(std::min<StateId>(s + 1, goal), 1.5);
  }
  return b.build();
}

TEST(BatchTest, CtmdpBatchHorizonsCertifyAtDifferentSweeps) {
  // Three long horizons, all above the auto-engage threshold (lambda =
  // 1280/1600/2000): in the bottom-aligned fusion each keeps its own
  // survival-series age, so each stops at a different absolute sweep —
  // and at exactly the sweep its single-t run stops at.
  const Ctmdp model = batch_drift_model(24);
  BitVector goal(model.num_states());
  goal.set(model.num_states() - 1);
  const std::vector<double> times = {320.0, 400.0, 500.0};

  TimedReachabilityOptions options;  // auto truncation + locking defaults
  const auto batch = timed_reachability_batch(model, goal, times, options);
  ASSERT_EQ(batch.size(), times.size());
  for (std::size_t j = 0; j < times.size(); ++j) {
    const auto single = timed_reachability(model, goal, times[j], options);
    SCOPED_TRACE("t " + std::to_string(times[j]));
    ASSERT_EQ(single.truncation, Truncation::Lyapunov);
    ASSERT_GT(single.k_lyapunov, 0u);
    expect_bitwise(batch[j].values, single.values, "values");
    ASSERT_EQ(bits(batch[j].residual_bound), bits(single.residual_bound));
    ASSERT_EQ(batch[j].iterations_planned, single.iterations_planned);
    ASSERT_EQ(batch[j].iterations_executed, single.iterations_executed);
    ASSERT_EQ(batch[j].truncation, single.truncation);
    ASSERT_EQ(batch[j].k_lyapunov, single.k_lyapunov);
    ASSERT_LT(batch[j].iterations_executed, batch[j].iterations_planned);
  }
  // The stop decisions are genuinely per-horizon, not one shared cut.
  EXPECT_NE(batch[0].iterations_executed, batch[1].iterations_executed);
  EXPECT_NE(batch[1].iterations_executed, batch[2].iterations_executed);
}

TEST(BatchTest, CtmcBatchHorizonsCertifyAtDifferentSweeps) {
  CtmcBuilder b(24);
  const StateId last = 23;
  for (StateId s = 0; s < last; ++s) {
    b.add_transition(s, 3.0, last);
    b.add_transition(s, 1.0, std::min<StateId>(s + 1, last));
  }
  b.set_initial(0);
  const Ctmc chain = b.build();
  BitVector goal(chain.num_states());
  goal.set(chain.num_states() - 1);
  // The CTMC fold runs bottom-up, so engaged horizons certify at the same
  // low absolute step; a short un-engaged horizon in the mix guarantees
  // genuinely different per-horizon stop decisions inside one batch.
  const std::vector<double> times = {2.0, 400.0, 500.0};

  TransientOptions options;
  const auto batch = timed_reachability_batch(chain, goal, times, options);
  ASSERT_EQ(batch.size(), times.size());
  for (std::size_t j = 0; j < times.size(); ++j) {
    const auto single = timed_reachability(chain, goal, times[j], options);
    SCOPED_TRACE("t " + std::to_string(times[j]));
    ASSERT_EQ(single.truncation,
              j == 0 ? Truncation::FoxGlynn : Truncation::Lyapunov);
    expect_bitwise(batch[j].probabilities, single.probabilities, "probabilities");
    ASSERT_EQ(bits(batch[j].residual_bound), bits(single.residual_bound));
    ASSERT_EQ(batch[j].iterations_executed, single.iterations_executed);
    ASSERT_EQ(batch[j].truncation, single.truncation);
    ASSERT_EQ(batch[j].k_lyapunov, single.k_lyapunov);
    if (j > 0) {
      ASSERT_GT(batch[j].k_lyapunov, 0u);
      ASSERT_LT(batch[j].iterations_executed, batch[j].iterations);
    }
  }
  EXPECT_NE(batch[0].iterations_executed, batch[1].iterations_executed);
}

TEST(BatchTest, CtmcBatchPublishesItsSharedIterate) {
  // One checkpoint per shared step, and the trust boundary holds: a NaN
  // written through it surfaces as NumericError.
  Rng rng(0x5a4eu);
  Ctmc chain = gen::random_ctmc(rng);
  const BitVector goal = gen::random_goal(rng, chain.num_states(), 0.3);
  const std::vector<double> times = {2.0, 0.5};
  const auto clean = timed_reachability_batch(chain, goal, times);

  RunGuard observer;
  std::uint64_t published = 0;
  observer.set_checkpoint([&](const RunCheckpoint& cp) {
    EXPECT_EQ(cp.values.size(), chain.num_states());
    ++published;
  });
  TransientOptions observed_options;
  observed_options.guard = &observer;
  const auto observed = timed_reachability_batch(chain, goal, times, observed_options);
  EXPECT_EQ(published, std::max(clean[0].iterations_executed, clean[1].iterations_executed));
  for (std::size_t j = 0; j < times.size(); ++j) {
    expect_bitwise(observed[j].probabilities, clean[j].probabilities, "observed probabilities");
  }

  RunGuard poison;
  poison.set_checkpoint([](const RunCheckpoint& cp) {
    if (cp.step == 1) cp.values[0] = std::numeric_limits<double>::quiet_NaN();
  });
  TransientOptions poisoned_options;
  poisoned_options.guard = &poison;
  EXPECT_THROW(timed_reachability_batch(chain, goal, times, poisoned_options), NumericError);
}

TEST(BatchTest, CtmcBatchGuardStopKeepsFinishedHorizonsConverged) {
  Rng rng(0x6a2du);
  Ctmc chain = gen::random_ctmc(rng);
  const BitVector goal = gen::random_goal(rng, chain.num_states(), 0.3);
  const std::vector<double> times = {6.0, 0.5, 2.5};

  RunGuard guard;
  guard.cancel_after_polls(5);
  TransientOptions guarded;
  guarded.guard = &guard;
  const auto batch = timed_reachability_batch(chain, goal, times, guarded);

  bool saw_partial = false;
  for (std::size_t j = 0; j < times.size(); ++j) {
    const auto single = timed_reachability(chain, goal, times[j]);
    if (batch[j].status == RunStatus::Converged) {
      expect_bitwise(batch[j].probabilities, single.probabilities, "converged probabilities");
      continue;
    }
    saw_partial = true;
    EXPECT_EQ(batch[j].status, RunStatus::Cancelled);
    for (std::size_t s = 0; s < chain.num_states(); ++s) {
      EXPECT_LE(std::abs(batch[j].probabilities[s] - single.probabilities[s]),
                batch[j].residual_bound + 1e-12);
    }
  }
  EXPECT_TRUE(saw_partial);
}

}  // namespace
}  // namespace unicon
