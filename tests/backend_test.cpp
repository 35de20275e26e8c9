// Backend and BitVector test suite.
//
// Three concerns live here:
//  * unit coverage for support/bit_vector (the packed set type the solvers
//    migrated to) and the saturating decision-table sizing,
//  * the bit-consistency matrix: for every solver entry point, each backend
//    must be bit-identical to itself across all thread counts, the AVX2 and
//    portable SIMD kernels must agree bitwise with each other, and SIMD
//    must agree with the historical serial engine up to the FP-reassociation
//    tolerance documented in DESIGN.md Sec. 10,
//  * regressions for the scheduler-resume decision merge and the
//    early-termination window gate at huge Poisson parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "support/backend.hpp"
#include "support/bit_vector.hpp"
#include "support/errors.hpp"
#include "support/fox_glynn.hpp"
#include "support/numerics.hpp"
#include "support/rng.hpp"
#include "support/run_guard.hpp"
#include "testing/generate.hpp"
#include "test_util.hpp"

namespace unicon {
namespace {

// ------------------------------------------------------------- BitVector

TEST(BitVector, ConstructionAndBasicAccess) {
  BitVector empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.none());
  EXPECT_TRUE(empty.all());  // vacuously

  BitVector zeros(70);
  EXPECT_EQ(zeros.size(), 70u);
  EXPECT_EQ(zeros.count(), 0u);
  EXPECT_FALSE(zeros.any());

  BitVector ones(70, true);
  EXPECT_EQ(ones.count(), 70u);
  EXPECT_TRUE(ones.all());

  const BitVector lit{true, false, true, true};
  EXPECT_EQ(lit.size(), 4u);
  EXPECT_TRUE(lit[0]);
  EXPECT_FALSE(lit[1]);
  EXPECT_EQ(lit.count(), 3u);
}

TEST(BitVector, VectorBoolBridgeRoundTrips) {
  std::vector<bool> src(131);
  for (std::size_t i = 0; i < src.size(); i += 7) src[i] = true;
  const BitVector v = src;  // implicit bridge
  EXPECT_EQ(v.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) EXPECT_EQ(v[i], src[i]) << i;
  EXPECT_EQ(v.to_vector_bool(), src);
  EXPECT_TRUE(v == src);  // mixed comparison through the implicit ctor
}

TEST(BitVector, SetGetAndReferenceProxy) {
  BitVector v(130);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(129);
  EXPECT_TRUE(v[0] && v[63] && v[64] && v[129]);
  EXPECT_EQ(v.count(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  v[7] = true;  // proxy write
  EXPECT_TRUE(v[7]);
  v[7] = false;
  EXPECT_FALSE(v[7]);
}

TEST(BitVector, NextSetAndNextUnsetScanWordBoundaries) {
  BitVector v(200);
  for (std::size_t i : {0u, 5u, 63u, 64u, 127u, 128u, 199u}) v.set(i);
  std::vector<std::size_t> seen;
  for (std::size_t i = v.next_set(0); i != BitVector::npos; i = v.next_set(i + 1)) {
    seen.push_back(i);
  }
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 5, 63, 64, 127, 128, 199}));
  EXPECT_EQ(v.next_set(200), BitVector::npos);

  EXPECT_EQ(v.next_unset(0), 1u);
  EXPECT_EQ(v.next_unset(63), 65u);
  BitVector full(64, true);
  EXPECT_EQ(full.next_unset(0), BitVector::npos);
  EXPECT_EQ(full.next_set(0), 0u);
}

TEST(BitVector, WordOpsAndTailInvariant) {
  BitVector a(70, true);
  BitVector b(70);
  for (std::size_t i = 0; i < 70; i += 2) b.set(i);

  BitVector and_result = a;
  and_result &= b;
  EXPECT_EQ(and_result, b);

  BitVector or_result = b;
  or_result |= a;
  EXPECT_EQ(or_result, a);

  BitVector xor_result = a;
  xor_result ^= b;
  EXPECT_EQ(xor_result.count(), 70u - b.count());

  BitVector diff = a;
  diff.and_not(b);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_EQ(diff[i], i % 2 == 1) << i;

  // flip keeps the tail bits beyond size() clear — word-level consumers
  // (the SIMD backend) rely on this.
  BitVector f(70);
  f.flip();
  EXPECT_TRUE(f.all());
  ASSERT_EQ(f.num_words(), 2u);
  EXPECT_EQ(f.word(1) >> (70 - 64), 0u);

  BitVector wrong_size(69);
  EXPECT_THROW(a &= wrong_size, ModelError);
  EXPECT_THROW(a |= wrong_size, ModelError);
  EXPECT_THROW(a ^= wrong_size, ModelError);
  EXPECT_THROW(a.and_not(wrong_size), ModelError);
}

TEST(BitVector, ResizePushBackAndTailClearing) {
  BitVector v;
  for (std::size_t i = 0; i < 100; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.count(), 34u);

  v.resize(64);  // shrink across a word boundary
  EXPECT_EQ(v.size(), 64u);
  v.resize(128, true);
  EXPECT_EQ(v.count(), 22u + 64u);

  // Shrinking must clear the abandoned tail so a later grow sees zeros.
  BitVector w(70, true);
  w.resize(3);
  w.resize(70);
  EXPECT_EQ(w.count(), 3u);
  for (std::size_t word = 0; word < w.num_words(); ++word) {
    if (word == 0) {
      EXPECT_EQ(w.word(0), 0b111u);
    } else {
      EXPECT_EQ(w.word(word), 0u);
    }
  }
}

TEST(BitVector, EqualityAndAssign) {
  BitVector a(65);
  a.set(64);
  BitVector b(65);
  EXPECT_NE(a, b);
  b.set(64);
  EXPECT_EQ(a, b);
  b.assign(65, false);
  EXPECT_NE(a, b);
  EXPECT_NE(a, BitVector(64));  // same prefix, different size
}

// ------------------------------------------- decision-table sizing satellite

TEST(SaturatingMul, BoundaryCases) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(saturating_mul(0, 0), 0u);
  EXPECT_EQ(saturating_mul(0, kMax), 0u);
  EXPECT_EQ(saturating_mul(kMax, 0), 0u);
  EXPECT_EQ(saturating_mul(1, kMax), kMax);
  EXPECT_EQ(saturating_mul(kMax, 1), kMax);
  EXPECT_EQ(saturating_mul(2, kMax / 2), kMax - 1);  // exact, just below the edge
  EXPECT_EQ(saturating_mul(2, kMax / 2 + 1), kMax);  // first overflowing product
  EXPECT_EQ(saturating_mul(kMax, kMax), kMax);
  EXPECT_EQ(saturating_mul(1u << 31, 1u << 31), std::uint64_t{1} << 62);
  EXPECT_EQ(saturating_mul(std::uint64_t{1} << 32, std::uint64_t{1} << 32), kMax);
}

TEST(DecisionTable, OversizedTableDegradesToInitialDecisionOnly) {
  Rng rng(7);
  const Ctmdp model = testing::random_uniform_ctmdp(rng, {.num_states = 12});
  const BitVector goal = testing::random_goal(rng, model.num_states());

  TimedReachabilityOptions options;
  options.extract_scheduler = true;
  const auto full = timed_reachability(model, goal, 1.5, options);
  ASSERT_GT(full.iterations_planned, 1u);
  EXPECT_EQ(full.decisions.size(), full.iterations_planned);
  EXPECT_EQ(full.initial_decision.size(), model.num_states());

  // A cap below k*n disables the full table but must keep the i = 1 row,
  // and must not wrap around: a cap that an overflowing k*n product would
  // appear to satisfy stays disabled thanks to the saturating multiply.
  options.max_decision_entries = full.iterations_planned;  // < k*n for n > 1
  const auto capped = timed_reachability(model, goal, 1.5, options);
  EXPECT_TRUE(capped.decisions.empty());
  EXPECT_EQ(capped.initial_decision, full.initial_decision);
  EXPECT_EQ(capped.values, full.values);
}

// ------------------------------------------------------ bit-consistency suite

/// Sizes chosen to cover every residue that matters to the kernels: the
/// 4-lane stripes (n mod 4), the AVX2 gather width (n mod 8) and the
/// cache-block granularity (n mod 16), plus the single-word and
/// word-boundary BitVector cases.
const std::size_t kSizes[] = {1, 3, 4, 5, 7, 8, 12, 13, 16, 17, 29, 33, 64, 67};

const Backend kBackends[] = {Backend::Serial, Backend::Simd, Backend::SimdPortable};
const unsigned kThreadCounts[] = {1, 2, 3, 8};

/// Absolute tolerance for serial-vs-SIMD value differences.  Values live in
/// [0, 1]; the reassociation error of the striped dot product is a few ulps
/// per step and the sweeps run O(100) steps here (DESIGN.md Sec. 10).
constexpr double kReassocTol = 1e-12;

double max_abs_diff_vec(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

struct CtmdpCase {
  Ctmdp model;
  BitVector goal;
  BitVector avoid;
};

CtmdpCase make_ctmdp_case(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  CtmdpCase c;
  c.model = testing::random_uniform_ctmdp(
      rng, {.num_states = n, .uniform_rate = 2.0, .max_transitions_per_state = 3});
  n = c.model.num_states();  // the generator clamps tiny sizes up to 2
  c.goal = testing::random_goal(rng, n);
  c.avoid = BitVector(n);
  // Sparse avoid set disjoint from the goal, never the initial state.
  for (std::size_t s = 1; s < n; ++s) {
    if (!c.goal[s] && rng.next_double() < 0.15) c.avoid.set(s);
  }
  return c;
}

TEST(BitConsistency, TimedReachabilityAcrossBackendsAndThreads) {
  for (std::size_t n : kSizes) {
    const CtmdpCase c = make_ctmdp_case(1000 + n, n);
    std::vector<std::vector<double>> per_backend;
    for (Backend backend : kBackends) {
      TimedReachabilityOptions options;
      options.backend = backend;
      options.avoid = c.avoid;
      options.threads = 1;
      const auto reference = timed_reachability(c.model, c.goal, 1.25, options);
      for (unsigned threads : kThreadCounts) {
        options.threads = threads;
        const auto run = timed_reachability(c.model, c.goal, 1.25, options);
        EXPECT_EQ(run.values, reference.values)
            << "thread-variance in " << backend_name(backend) << " n=" << n
            << " threads=" << threads;
      }
      per_backend.push_back(reference.values);
    }
    // Simd and SimdPortable share the striped-lane contract bit-for-bit.
    EXPECT_EQ(per_backend[1], per_backend[2]) << "simd vs simd-portable, n=" << n;
    // Serial differs by reassociation only.
    EXPECT_LE(max_abs_diff_vec(per_backend[0], per_backend[1]), kReassocTol) << "n=" << n;
  }
}

TEST(BitConsistency, EvaluateSchedulerAcrossBackendsAndThreads) {
  for (std::size_t n : kSizes) {
    const CtmdpCase c = make_ctmdp_case(2000 + n, n);
    TimedReachabilityOptions extract;
    extract.extract_scheduler = true;
    const auto optimal = timed_reachability(c.model, c.goal, 1.0, extract);
    std::vector<std::uint64_t> choice = optimal.initial_decision;
    for (auto& t : choice) {
      if (t == kNoTransition) t = 0;
    }

    std::vector<std::vector<double>> per_backend;
    for (Backend backend : kBackends) {
      TimedReachabilityOptions options;
      options.backend = backend;
      options.threads = 1;
      const auto reference = evaluate_scheduler(c.model, c.goal, 1.0, choice, options);
      for (unsigned threads : kThreadCounts) {
        options.threads = threads;
        const auto run = evaluate_scheduler(c.model, c.goal, 1.0, choice, options);
        EXPECT_EQ(run.values, reference.values)
            << "thread-variance in " << backend_name(backend) << " n=" << n
            << " threads=" << threads;
      }
      per_backend.push_back(reference.values);
    }
    // Policy evaluation replays on the serial rows whatever the backend.
    EXPECT_EQ(per_backend[0], per_backend[1]) << "serial vs simd, n=" << n;
    EXPECT_EQ(per_backend[1], per_backend[2]) << "simd vs simd-portable, n=" << n;
  }
}

/// Only the serial rows record decisions, so an extracting solve runs them
/// on every backend and returns the serial extraction bit-for-bit.
TEST(BitConsistency, ExtractionOnEveryBackendIsTheSerialExtraction) {
  for (std::size_t n : kSizes) {
    const CtmdpCase c = make_ctmdp_case(4000 + n, n);
    for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
      TimedReachabilityOptions options;
      options.objective = objective;
      options.avoid = c.avoid;
      options.extract_scheduler = true;
      options.backend = Backend::Serial;
      options.threads = 1;
      const auto serial = timed_reachability(c.model, c.goal, 1.5, options);
      for (const Backend backend : {Backend::Simd, Backend::SimdPortable}) {
        for (const unsigned threads : {1u, 3u}) {
          SCOPED_TRACE(std::string(backend_name(backend)) + " n=" + std::to_string(n) +
                       " threads=" + std::to_string(threads));
          options.backend = backend;
          options.threads = threads;
          const auto run = timed_reachability(c.model, c.goal, 1.5, options);
          ASSERT_EQ(run.values.size(), serial.values.size());
          for (std::size_t s = 0; s < run.values.size(); ++s) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(run.values[s]),
                      std::bit_cast<std::uint64_t>(serial.values[s]))
                << "state " << s;
          }
          EXPECT_EQ(run.initial_decision, serial.initial_decision);
          EXPECT_EQ(run.decisions, serial.decisions);
          EXPECT_EQ(run.iterations_executed, serial.iterations_executed);
        }
      }
    }
  }
}

TEST(BitConsistency, StepBoundedReachabilityAcrossBackendsAndThreads) {
  for (std::size_t n : kSizes) {
    const CtmdpCase c = make_ctmdp_case(3000 + n, n);
    std::vector<std::vector<double>> per_backend;
    for (Backend backend : kBackends) {
      const auto reference = step_bounded_reachability(c.model, c.goal, 25, Objective::Maximize,
                                                       /*threads=*/1, nullptr, backend);
      for (unsigned threads : kThreadCounts) {
        const auto run = step_bounded_reachability(c.model, c.goal, 25, Objective::Maximize,
                                                   threads, nullptr, backend);
        EXPECT_EQ(run, reference) << "thread-variance in " << backend_name(backend) << " n=" << n
                                  << " threads=" << threads;
      }
      per_backend.push_back(reference);
    }
    EXPECT_EQ(per_backend[1], per_backend[2]) << "simd vs simd-portable, n=" << n;
    EXPECT_LE(max_abs_diff_vec(per_backend[0], per_backend[1]), kReassocTol) << "n=" << n;
  }
}

/// Step-bounded values are probabilities on every backend.  The goal mass
/// re-summed from the branching rows can round a few ulps above 1; without
/// the final clamp this model (seed 9, 40 states) puts seven states above 1
/// on both the serial and the dense engine.
TEST(BitConsistency, StepBoundedValuesStayInTheUnitInterval) {
  Rng rng(9);
  const Ctmdp model = testing::random_uniform_ctmdp(rng, {.num_states = 40});
  const BitVector goal = testing::random_goal(rng, model.num_states(), 0.3);
  for (Backend backend : kBackends) {
    const auto values = step_bounded_reachability(model, goal, 25, Objective::Maximize,
                                                  /*threads=*/1, nullptr, backend);
    ASSERT_EQ(values.size(), model.num_states());
    for (std::size_t s = 0; s < values.size(); ++s) {
      EXPECT_GE(values[s], 0.0) << backend_name(backend) << " state " << s;
      EXPECT_LE(values[s], 1.0) << backend_name(backend) << " state " << s;
    }
  }
}

TEST(BitConsistency, CtmcReachabilityAcrossBackendsAndThreads) {
  for (std::size_t n : kSizes) {
    Rng rng(4000 + n);
    const Ctmc chain = testing::random_ctmc(rng, {.num_states = n});
    const BitVector goal = testing::random_goal(rng, chain.num_states());

    std::vector<std::vector<double>> reach_per_backend;
    for (Backend backend : kBackends) {
      TransientOptions options;
      options.backend = backend;
      options.threads = 1;
      const auto reach_ref = timed_reachability(chain, goal, 0.8, options);
      for (unsigned threads : kThreadCounts) {
        options.threads = threads;
        const auto reach = timed_reachability(chain, goal, 0.8, options);
        EXPECT_EQ(reach.probabilities, reach_ref.probabilities)
            << "thread-variance in " << backend_name(backend) << " n=" << n
            << " threads=" << threads;
      }
      reach_per_backend.push_back(reach_ref.probabilities);
    }
    EXPECT_EQ(reach_per_backend[1], reach_per_backend[2]) << "simd vs simd-portable, n=" << n;
    EXPECT_LE(max_abs_diff_vec(reach_per_backend[0], reach_per_backend[1]), kReassocTol)
        << "n=" << n;
  }
}

TEST(BitConsistency, AvxKernelReportsAvailability) {
  // On an AVX2 host with UNICON_AVX2 compiled in, Backend::Simd must use the
  // vector kernel (otherwise the benchmark record would silently measure
  // the portable stripes).  Elsewhere it must fall back, not fail.
  if (cpu_supports_avx2()) {
    EXPECT_EQ(simd_uses_avx2(), avx2_kernel_ops() != nullptr);
  } else {
    EXPECT_FALSE(simd_uses_avx2());
  }
  EXPECT_THROW(kernel_ops(Backend::Serial), ModelError);
  EXPECT_NE(kernel_ops(Backend::SimdPortable).relax_rows, nullptr);
  EXPECT_NE(kernel_ops(Backend::Simd).gather_rows, nullptr);
}

// ------------------------------------- convergence-locking consistency

/// Convergence locking must be invisible in the results: for every backend
/// and thread count, a locked run is bitwise identical to the same
/// backend's unlocked run (the locking criterion only freezes exact
/// fixpoints of their own row — DESIGN.md Sec. 14).  The horizon is long
/// enough (lambda = 20, ~80 sweeps) for tail values to freeze bitwise and
/// locks to actually engage.
TEST(BitConsistency, LockingOnOffBitwiseAcrossBackendsAndThreads) {
  for (std::size_t n : {5u, 13u, 33u, 67u}) {
    const CtmdpCase c = make_ctmdp_case(5000 + n, n);
    for (Backend backend : kBackends) {
      TimedReachabilityOptions options;
      options.backend = backend;
      options.avoid = c.avoid;
      options.threads = 1;
      options.locking = false;
      const auto unlocked = timed_reachability(c.model, c.goal, 10.0, options);
      for (bool locking : {false, true}) {
        for (unsigned threads : kThreadCounts) {
          options.locking = locking;
          options.threads = threads;
          const auto run = timed_reachability(c.model, c.goal, 10.0, options);
          EXPECT_EQ(run.values, unlocked.values)
              << backend_name(backend) << " n=" << n << " threads=" << threads
              << " locking=" << locking;
          EXPECT_EQ(run.iterations_planned, unlocked.iterations_planned);
        }
      }
    }
  }
}

TEST(BitConsistency, CtmcLockingOnOffBitwiseAcrossBackendsAndThreads) {
  std::uint64_t locked = 0;
  for (std::size_t n : {5u, 29u, 67u}) {
    Rng rng(6000 + n);
    const Ctmc chain = testing::random_ctmc(rng, {.num_states = n});
    const BitVector goal = testing::random_goal(rng, chain.num_states());
    for (Backend backend : kBackends) {
      TransientOptions options;
      options.backend = backend;
      options.threads = 1;
      options.locking = false;
      const auto unlocked = timed_reachability(chain, goal, 8.0, options);
      for (bool locking : {false, true}) {
        for (unsigned threads : kThreadCounts) {
          options.locking = locking;
          options.threads = threads;
          const auto run = timed_reachability(chain, goal, 8.0, options);
          EXPECT_EQ(run.probabilities, unlocked.probabilities)
              << backend_name(backend) << " n=" << n << " threads=" << threads
              << " locking=" << locking;
          EXPECT_EQ(run.iterations_executed, unlocked.iterations_executed);
          if (!locking) {
            EXPECT_EQ(run.locked_final, 0u);
          }
          locked += run.locked_final;
        }
      }
    }
  }
  // Rows must actually lock, or the comparison proves nothing.
  EXPECT_GT(locked, 0u);
}

// ----------------------------------------- CTMC goal-compacted sweeps

/// The full-state layout of the goal-absorbed uniformized chain: one row
/// per state, every goal row absorbing (diagonal 1, no entries), at the
/// largest non-goal exit rate.  The CTMC solver sweeps only the non-goal
/// rows and reads every goal column from one shared slot; this reference
/// keeps every state.
struct FullStateRows {
  double rate = 1.0;
  std::vector<double> diag;
  std::vector<std::uint64_t> first{0};
  std::vector<double> prob;
  std::vector<std::uint32_t> col;

  FullStateRows(const Ctmc& chain, const BitVector& goal) {
    const std::size_t n = chain.num_states();
    double max_exit = 0.0;
    for (StateId s = 0; s < n; ++s) {
      if (!goal[s]) max_exit = std::max(max_exit, chain.exit_rate(s));
    }
    if (max_exit > 0.0) rate = max_exit;
    for (StateId s = 0; s < n; ++s) {
      if (goal[s]) {
        diag.push_back(1.0);
      } else {
        diag.push_back(std::max(0.0, 1.0 - chain.exit_rate(s) / rate));
        for (const SparseEntry& t : chain.out(s)) {
          prob.push_back(t.value / rate);
          col.push_back(t.col);
        }
      }
      first.push_back(prob.size());
    }
  }

  GatherView view() const {
    return GatherView{diag.size(), diag.data(), first.data(), prob.data(), col.data()};
  }
};

/// Fox-Glynn timed reachability on the full-state rows: the serial loop for
/// Backend::Serial, else the backend's gather over all rows at once.
/// @p iterates, when given, receives v_1 .. v_right.
std::vector<double> full_state_reachability(const FullStateRows& rows, const BitVector& goal,
                                            double t, double epsilon, Backend backend,
                                            std::vector<std::vector<double>>* iterates = nullptr) {
  const GatherView g = rows.view();
  const std::size_t n = g.num_rows;
  const PoissonWindow window = PoissonWindow::compute(rows.rate * t, epsilon);
  std::vector<double> cur(n);
  std::vector<double> next(n);
  std::vector<double> acc(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) cur[s] = goal[s] ? 1.0 : 0.0;
  for (std::uint64_t i = 0;; ++i) {
    const double w = window.psi(i);
    if (w > 0.0) {
      for (std::size_t s = 0; s < n; ++s) acc[s] += w * cur[s];
    }
    if (i >= window.right()) break;
    if (backend == Backend::Serial) {
      for (std::size_t r = 0; r < n; ++r) {
        double a = g.diag[r] * cur[r];
        for (std::uint64_t j = g.row_first[r]; j < g.row_first[r + 1]; ++j) {
          a += g.prob[j] * cur[g.col[j]];
        }
        next[r] = a;
      }
    } else {
      kernel_ops(backend).gather_rows(g, cur.data(), next.data(), 0, n);
    }
    cur.swap(next);
    if (iterates != nullptr) iterates->push_back(cur);
  }
  for (std::size_t s = 0; s < n; ++s) acc[s] = goal[s] ? 1.0 : clamp01(acc[s]);
  return acc;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[s]), std::bit_cast<std::uint64_t>(b[s]))
        << what << " differs at state " << s << ": " << a[s] << " vs " << b[s];
  }
}

struct CtmcCase {
  std::string name;
  Ctmc chain;
  BitVector goal;
};

std::vector<CtmcCase> compaction_cases() {
  std::vector<CtmcCase> cases;
  {
    Rng rng(7100);
    Ctmc chain = testing::random_ctmc(rng, {.num_states = 23});
    BitVector goal = testing::random_goal(rng, chain.num_states());
    cases.push_back({"random", std::move(chain), std::move(goal)});
  }
  {
    Rng rng(7200);
    Ctmc chain = testing::random_ctmc(rng, {.num_states = 9});
    cases.push_back({"all goal", std::move(chain), BitVector(9, true)});
  }
  {
    Rng rng(7300);
    Ctmc chain = testing::random_ctmc(rng, {.num_states = 12});
    cases.push_back({"no goal", std::move(chain), BitVector(12, false)});
  }
  {
    // States 0..3 circulate; the goal, state 4, only leaves.
    CtmcBuilder b(5);
    for (StateId s = 0; s < 4; ++s) b.add_transition(s, 1.0 + s, (s + 1) % 4);
    b.add_transition(4, 2.0, 0);
    BitVector goal(5);
    goal.set(4);
    cases.push_back({"goal unreachable", b.build(), std::move(goal)});
  }
  {
    Rng rng(7400);
    Ctmc chain = testing::random_ctmc(rng, {.num_states = 31, .absorbing_density = 0.4});
    BitVector goal = testing::random_goal(rng, chain.num_states());
    cases.push_back({"non-goal absorbing", std::move(chain), std::move(goal)});
  }
  return cases;
}

TEST(BitConsistency, CtmcGoalCompactionIsTheFullStateSweep) {
  const std::vector<double> times = {0.4, 3.0};
  constexpr double kEpsilon = 1e-6;
  bool saw_absorbing_live_state = false;
  for (const CtmcCase& c : compaction_cases()) {
    const FullStateRows rows(c.chain, c.goal);
    for (StateId s = 0; s < c.chain.num_states(); ++s) {
      if (!c.goal[s] && c.chain.exit_rate(s) == 0.0) saw_absorbing_live_state = true;
    }
    for (const Backend backend : kBackends) {
      std::vector<std::vector<double>> reference;
      for (const double t : times) {
        reference.push_back(full_state_reachability(rows, c.goal, t, kEpsilon, backend));
      }
      for (const bool locking : {false, true}) {
        for (const unsigned threads : {1u, 3u}) {
          const std::string tag = c.name + " " + backend_name(backend) +
                                  " locking=" + std::to_string(locking) +
                                  " threads=" + std::to_string(threads);
          TransientOptions options;
          options.epsilon = kEpsilon;
          options.truncation = Truncation::FoxGlynn;
          options.backend = backend;
          options.locking = locking;
          options.threads = threads;
          const auto batch = timed_reachability_batch(c.chain, c.goal, times, options);
          ASSERT_EQ(batch.size(), times.size());
          for (std::size_t j = 0; j < times.size(); ++j) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[j].uniform_rate),
                      std::bit_cast<std::uint64_t>(rows.rate))
                << tag;
            expect_same_bits(batch[j].probabilities, reference[j],
                             tag + " t=" + std::to_string(times[j]));
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_absorbing_live_state);
}

TEST(BitConsistency, CtmcCheckpointsPublishTheFullStateIterate) {
  // Every published checkpoint carries one entry per state, goal entries
  // at 1, and equals the full-state sweep's iterate of that step.
  Rng rng(7500);
  const Ctmc chain = testing::random_ctmc(rng, {.num_states = 17});
  const BitVector goal = testing::random_goal(rng, chain.num_states());
  const FullStateRows rows(chain, goal);
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(backend_name(backend));
    std::vector<std::vector<double>> iterates;
    full_state_reachability(rows, goal, 2.0, 1e-6, backend, &iterates);
    RunGuard guard;
    std::vector<std::vector<double>> published;
    guard.set_checkpoint([&](const RunCheckpoint& cp) {
      published.emplace_back(cp.values.begin(), cp.values.end());
    });
    TransientOptions options;
    options.truncation = Truncation::FoxGlynn;
    options.backend = backend;
    options.guard = &guard;
    timed_reachability(chain, goal, 2.0, options);
    ASSERT_EQ(published.size(), iterates.size());
    for (std::size_t k = 0; k < published.size(); ++k) {
      for (std::size_t s = 0; s < chain.num_states(); ++s) {
        if (goal[s]) {
          ASSERT_EQ(published[k][s], 1.0) << "step " << k + 1 << " state " << s;
        }
      }
      expect_same_bits(published[k], iterates[k], "checkpoint " + std::to_string(k + 1));
    }
  }
}

// --------------------------------------------- scheduler-resume regression

TEST(SchedulerResume, MergesPreInterruptionDecisions) {
  Rng rng(99);
  const Ctmdp model = testing::random_uniform_ctmdp(rng, {.num_states = 14});
  const BitVector goal = testing::random_goal(rng, model.num_states());

  TimedReachabilityOptions options;
  options.extract_scheduler = true;
  const auto reference = timed_reachability(model, goal, 2.0, options);
  ASSERT_EQ(reference.status, RunStatus::Converged);
  ASSERT_EQ(reference.decisions.size(), reference.iterations_planned);

  // Interrupt mid-iteration at several depths; the resumed run must
  // reconstruct the identical artifact, including the decision rows
  // recorded before the interruption.
  for (std::uint64_t polls : {2u, 5u, 9u}) {
    RunGuard guard;
    guard.cancel_after_polls(polls);
    TimedReachabilityOptions interrupted = options;
    interrupted.guard = &guard;
    const auto partial = timed_reachability(model, goal, 2.0, interrupted);
    if (partial.status == RunStatus::Converged) continue;  // cancelled too late
    ASSERT_FALSE(partial.iterate.empty());

    TimedReachabilityOptions resume_options = options;
    resume_options.resume = &partial;
    const auto resumed = timed_reachability(model, goal, 2.0, resume_options);
    EXPECT_EQ(resumed.status, RunStatus::Converged);
    EXPECT_EQ(resumed.values, reference.values) << "polls=" << polls;
    EXPECT_EQ(resumed.initial_decision, reference.initial_decision) << "polls=" << polls;
    EXPECT_EQ(resumed.decisions, reference.decisions) << "polls=" << polls;
  }
}

// ------------------------------------------------- cross-backend resume

/// Fast-absorbing drift model (uniform rate 4): every state feeds the
/// absorbing goal (the last state) at rate 3 and its successor at rate 1,
/// so the Lyapunov certificate fires within a few dozen below-window sweeps.
Ctmdp drift_model(std::size_t n) {
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

TEST(CrossBackendResume, PartialResultsResumeUnderEveryBackend) {
  // DESIGN.md Sec. 10.1: partial results are full-state, so a run
  // interrupted under one backend resumes under any other.  Long horizon,
  // so the certificate engages, with locking on: the resumed run replays
  // the survival record and re-derives its locks on the resuming engine.
  const Ctmdp c = drift_model(20);
  BitVector goal(c.num_states());
  goal.set(c.num_states() - 1);
  const double t = 400.0;
  for (Backend from : kBackends) {
    TimedReachabilityOptions interrupted_options;
    interrupted_options.backend = from;
    const auto reference = timed_reachability(c, goal, t, interrupted_options);
    ASSERT_EQ(reference.truncation, Truncation::Lyapunov);
    ASSERT_LT(reference.iterations_executed, reference.iterations_planned);
    for (const std::uint64_t stop_at :
         {std::uint64_t{3}, reference.iterations_executed / 2,
          reference.iterations_executed - 1}) {
      RunGuard guard;
      guard.cancel_after_polls(stop_at);
      interrupted_options.guard = &guard;
      const auto partial = timed_reachability(c, goal, t, interrupted_options);
      interrupted_options.guard = nullptr;
      ASSERT_EQ(partial.status, RunStatus::Cancelled);
      for (Backend to : kBackends) {
        SCOPED_TRACE(std::string(backend_name(from)) + " -> " + backend_name(to) + " at poll " +
                     std::to_string(stop_at));
        TimedReachabilityOptions options;
        options.backend = to;
        const auto uninterrupted = timed_reachability(c, goal, t, options);
        options.resume = &partial;
        const auto resumed = timed_reachability(c, goal, t, options);
        ASSERT_EQ(resumed.status, RunStatus::Converged);
        if (to == from) {
          EXPECT_EQ(resumed.values, reference.values);
          continue;
        }
        for (std::size_t s = 0; s < c.num_states(); ++s) {
          EXPECT_LE(std::fabs(resumed.values[s] - reference.values[s]), partial.residual_bound);
        }
        EXPECT_LE(max_abs_diff_vec(resumed.values, uninterrupted.values), kReassocTol);
      }
    }
  }
}

// -------------------------------------- early-termination window regression

/// Two-state chain as a CTMDP: 0 -> 1 at half the uniform rate.  At huge
/// E*t the Poisson window's left truncation point is far above 1, and the
/// iterate converges long before the window is exhausted — exactly the
/// regime where a psi-underflow-based early-exit check used to fire inside
/// the window and truncate real probability mass.
Ctmdp huge_lambda_model() {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.set_initial(0);
  b.begin_transition(0, "go");
  b.add_rate(1, 200.0);
  b.add_rate(0, 200.0);
  b.begin_transition(1, "stay");
  b.add_rate(1, 400.0);
  return b.build();
}

TEST(EarlyTermination, GatedOnWindowBoundsAtHugeLambda) {
  const Ctmdp model = huge_lambda_model();
  const BitVector goal{false, true};
  const double t = 10.0;  // lambda = 4000, left bound ~ 3600

  TimedReachabilityOptions full_options;
  full_options.epsilon = 1e-9;
  const auto full = timed_reachability(model, goal, t, full_options);

  // An infinite delta makes the window gate the *only* thing standing
  // between the solver and an immediate bogus exit: if the gate ever fires
  // with psi mass still below the current step, the value collapses.
  TimedReachabilityOptions early_options = full_options;
  early_options.early_termination = true;
  early_options.early_termination_delta = std::numeric_limits<double>::max();
  const auto early = timed_reachability(model, goal, t, early_options);
  EXPECT_LT(early.iterations_executed, early.iterations_planned);  // it did fire
  EXPECT_NEAR(early.values[0], full.values[0], 1e-8);
  EXPECT_DOUBLE_EQ(early.values[1], 1.0);

  // With a realistic delta the answer must stay within delta + epsilon of
  // the exact run on every backend.
  early_options.early_termination_delta = 1e-9;
  for (Backend backend : kBackends) {
    early_options.backend = backend;
    const auto run = timed_reachability(model, goal, t, early_options);
    EXPECT_NEAR(run.values[0], full.values[0], 1e-8) << backend_name(backend);
  }
}

}  // namespace
}  // namespace unicon
