#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>
#include <vector>

#include "support/errors.hpp"
#include "support/fox_glynn.hpp"
#include "support/numerics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/sparse.hpp"
#include "support/symbols.hpp"

namespace unicon {
namespace {

// ---------------------------------------------------------------- symbols

TEST(ActionTable, TauIsPreInterned) {
  ActionTable t;
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.name(kTau), "tau");
  EXPECT_EQ(t.id("tau"), kTau);
}

TEST(ActionTable, InternIsIdempotent) {
  ActionTable t;
  const Action a = t.intern("fail");
  EXPECT_EQ(t.intern("fail"), a);
  EXPECT_EQ(t.name(a), "fail");
  EXPECT_EQ(t.size(), 2u);
}

TEST(ActionTable, DistinctNamesGetDistinctIds) {
  ActionTable t;
  EXPECT_NE(t.intern("a"), t.intern("b"));
}

TEST(ActionTable, UnknownNameThrows) {
  ActionTable t;
  EXPECT_THROW(t.id("nope"), ModelError);
  EXPECT_FALSE(t.contains("nope"));
}

TEST(ActionTable, OutOfRangeIdThrows) {
  ActionTable t;
  EXPECT_THROW(t.name(99), ModelError);
}

TEST(WordTable, SingleActionWord) {
  ActionTable actions;
  WordTable words;
  const Action a = actions.intern("go");
  const WordId w = words.intern_single(a);
  ASSERT_EQ(words.actions(w).size(), 1u);
  EXPECT_EQ(words.actions(w)[0], a);
  EXPECT_EQ(words.str(w, actions), "go");
}

TEST(WordTable, InternIsIdempotent) {
  WordTable words;
  const std::vector<Action> w1{1, 2, 3};
  const std::vector<Action> w2{1, 2};
  EXPECT_EQ(words.intern(w1), words.intern(w1));
  EXPECT_NE(words.intern(w1), words.intern(w2));
  EXPECT_EQ(words.size(), 2u);
}

TEST(WordTable, EmptyWordRejected) {
  WordTable words;
  EXPECT_THROW(words.intern({}), ModelError);
}

TEST(WordTable, StrJoinsWithDots) {
  ActionTable actions;
  WordTable words;
  const std::vector<Action> w{actions.intern("r_wsL"), actions.intern("g_bb")};
  EXPECT_EQ(words.str(words.intern(w), actions), "r_wsL.g_bb");
}

// ----------------------------------------------------------------- sparse

TEST(CsrBuilder, BuildsSortedRows) {
  CsrBuilder b(3);
  b.add(1, 2, 0.5);
  b.add(1, 0, 0.25);
  b.add(0, 1, 1.0);
  const CsrMatrix m = b.finish();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.entries(), 3u);
  ASSERT_EQ(m.row(1).size(), 2u);
  EXPECT_EQ(m.row(1)[0].col, 0u);
  EXPECT_EQ(m.row(1)[1].col, 2u);
  EXPECT_TRUE(m.row(2).empty());
}

TEST(CsrBuilder, MergesDuplicateCoordinates) {
  CsrBuilder b(2);
  b.add(0, 1, 0.5);
  b.add(0, 1, 0.25);
  const CsrMatrix m = b.finish();
  ASSERT_EQ(m.row(0).size(), 1u);
  EXPECT_DOUBLE_EQ(m.row(0)[0].value, 0.75);
}

TEST(CsrBuilder, GrowsRowsOnDemand) {
  CsrBuilder b;
  b.add(5, 0, 1.0);
  const CsrMatrix m = b.finish();
  EXPECT_EQ(m.rows(), 6u);
}

TEST(CsrMatrix, RowSum) {
  CsrBuilder b(1);
  b.add(0, 0, 1.5);
  b.add(0, 3, 2.5);
  EXPECT_DOUBLE_EQ(b.finish().row_sum(0), 4.0);
}

TEST(CsrMatrix, MultiplyMatchesManual) {
  CsrBuilder b(2);
  b.add(0, 0, 2.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 0.5);
  const CsrMatrix m = b.finish();
  const std::vector<double> x{1.0, 3.0};
  std::vector<double> y(2);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
}

TEST(CsrMatrix, TransposedMultiplyMatchesManual) {
  CsrBuilder b(2);
  b.add(0, 0, 2.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 0.5);
  const CsrMatrix m = b.finish();
  const std::vector<double> x{1.0, 3.0};
  std::vector<double> y(2);
  m.multiply_transposed(x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.5);  // 2*1 + 0.5*3
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

TEST(CsrMatrix, EmptyMatrix) {
  CsrBuilder b;
  const CsrMatrix m = b.finish();
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.entries(), 0u);
}

// -------------------------------------------------------------- fox-glynn

TEST(PoissonPmf, MatchesDirectFormulaSmall) {
  EXPECT_NEAR(poisson_pmf(0, 2.0), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(poisson_pmf(1, 2.0), 2.0 * std::exp(-2.0), 1e-12);
  EXPECT_NEAR(poisson_pmf(2, 2.0), 2.0 * std::exp(-2.0), 1e-12);
}

TEST(PoissonWindow, ZeroLambdaIsDegenerate) {
  const auto w = PoissonWindow::compute(0.0, 1e-6);
  EXPECT_EQ(w.left(), 0u);
  EXPECT_EQ(w.right(), 0u);
  EXPECT_DOUBLE_EQ(w.psi(0), 1.0);
  EXPECT_DOUBLE_EQ(w.psi(1), 0.0);
}

TEST(PoissonWindow, InvalidArgumentsThrow) {
  EXPECT_THROW(PoissonWindow::compute(-1.0, 1e-6), ModelError);
  EXPECT_THROW(PoissonWindow::compute(1.0, 0.0), ModelError);
  EXPECT_THROW(PoissonWindow::compute(1.0, 1.0), ModelError);
}

TEST(PoissonWindow, ZeroOutsideWindow) {
  const auto w = PoissonWindow::compute(100.0, 1e-6);
  EXPECT_GT(w.left(), 0u);
  EXPECT_DOUBLE_EQ(w.psi(w.left() - 1), 0.0);
  EXPECT_DOUBLE_EQ(w.psi(w.right() + 1), 0.0);
  EXPECT_GT(w.psi(100), 0.0);
}

TEST(PoissonWindow, TailMassDecreases) {
  const auto w = PoissonWindow::compute(50.0, 1e-8);
  EXPECT_NEAR(w.tail_mass(0), w.total_mass(), 1e-15);
  EXPECT_GT(w.tail_mass(40), w.tail_mass(60));
  EXPECT_DOUBLE_EQ(w.tail_mass(w.right() + 1), 0.0);
}

TEST(PoissonWindow, TailMassBoundaryValues) {
  // Window-restricted semantics: everything at or below the left truncation
  // point sees the full window mass (exactly total_mass(), not a re-summed
  // approximation of it), everything beyond the right point sees zero.
  const auto w = PoissonWindow::compute(100.0, 1e-6);
  ASSERT_GT(w.left(), 0u);
  EXPECT_DOUBLE_EQ(w.tail_mass(0), w.total_mass());
  EXPECT_DOUBLE_EQ(w.tail_mass(w.left() - 1), w.total_mass());
  EXPECT_DOUBLE_EQ(w.tail_mass(w.left()), w.total_mass());
  EXPECT_GT(w.tail_mass(w.left() + 1), 0.0);
  EXPECT_LT(w.tail_mass(w.left() + 1), w.total_mass());
  EXPECT_DOUBLE_EQ(w.tail_mass(w.right()), w.psi(w.right()));
  EXPECT_DOUBLE_EQ(w.tail_mass(w.right() + 1), 0.0);
}

TEST(PoissonWindow, TailMassDegenerateWindow) {
  // lambda == 0: the window is the single point {0} with mass 1.
  const auto w = PoissonWindow::compute(0.0, 1e-6);
  EXPECT_DOUBLE_EQ(w.tail_mass(0), 1.0);
  EXPECT_DOUBLE_EQ(w.tail_mass(w.left()), 1.0);
  EXPECT_DOUBLE_EQ(w.tail_mass(w.right() + 1), 0.0);
}

class PoissonWindowSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoissonWindowSweep, MassIsWithinEpsilon) {
  const double lambda = GetParam();
  const double epsilon = 1e-6;
  const auto w = PoissonWindow::compute(lambda, epsilon);
  EXPECT_GE(w.total_mass(), 1.0 - epsilon);
  EXPECT_LE(w.total_mass(), 1.0 + 1e-9);
}

TEST_P(PoissonWindowSweep, WeightsMatchReferencePmf) {
  const double lambda = GetParam();
  const auto w = PoissonWindow::compute(lambda, 1e-6);
  // Compare a handful of points against the lgamma-based reference.
  const std::uint64_t mid = (w.left() + w.right()) / 2;
  for (std::uint64_t i : {w.left(), mid, w.right()}) {
    const double ref = poisson_pmf(i, lambda);
    EXPECT_NEAR(w.psi(i), ref, 1e-9 + 1e-6 * ref) << "lambda=" << lambda << " i=" << i;
  }
}

TEST_P(PoissonWindowSweep, WindowBracketsTheMode) {
  const double lambda = GetParam();
  const auto w = PoissonWindow::compute(lambda, 1e-6);
  const auto mode = static_cast<std::uint64_t>(lambda);
  EXPECT_LE(w.left(), mode);
  EXPECT_GE(w.right(), mode);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonWindowSweep,
                         ::testing::Values(1e-3, 0.1, 1.0, 5.0, 25.0, 205.0, 1000.0, 10000.0,
                                           77000.0));

TEST(PoissonWindow, HugeLambdaStaysAccurateAndNarrow) {
  // lambda = 1e6: the window is O(sqrt(lambda) * sqrt(log 1/eps)) wide and
  // the weights still match the reference pmf.
  const double lambda = 1e6;
  const auto w = PoissonWindow::compute(lambda, 1e-6);
  EXPECT_LT(w.right() - w.left(), 20000u);
  EXPECT_GE(w.total_mass(), 1.0 - 1e-6);
  const auto mode = static_cast<std::uint64_t>(lambda);
  EXPECT_NEAR(w.psi(mode), poisson_pmf(mode, lambda), 1e-12);
}

TEST(PoissonWindow, RightGrowsWithLambda) {
  const auto w1 = PoissonWindow::compute(10.0, 1e-6);
  const auto w2 = PoissonWindow::compute(1000.0, 1e-6);
  EXPECT_LT(w1.right(), w2.right());
}

TEST(PoissonWindow, TighterEpsilonWidensWindow) {
  const auto loose = PoissonWindow::compute(100.0, 1e-4);
  const auto tight = PoissonWindow::compute(100.0, 1e-12);
  EXPECT_LE(tight.left(), loose.left());
  EXPECT_GE(tight.right(), loose.right());
}

TEST(PoissonWindow, EpsilonBelowAccuracyFloorThrowsNumericError) {
  // At lambda = 1000 the frontier pmf underflows before the window mass can
  // certify 1 - 1e-14: compute must refuse with a typed NumericError naming
  // the achievable floor, never silently return a degraded window (which
  // would invalidate every downstream residual bound).
  try {
    PoissonWindow::compute(1000.0, 1e-14);
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Numeric);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("accuracy floor"), std::string::npos) << msg;
    EXPECT_NE(msg.find("truncation error"), std::string::npos) << msg;
  }
  EXPECT_THROW(PoissonWindow::compute(25.0, 1e-15), NumericError);
  // The same epsilons are fine where the floor is lower.
  EXPECT_GE(PoissonWindow::compute(1.0, 1e-14).total_mass(), 1.0 - 1e-14);
}

// ---------------------------------------------- fox-glynn stress (extreme)

namespace {

/// Smallest k with cumulative Poisson mass >= 1 - eps, by compensated
/// summation of the reference pmf.  poisson_pmf evaluates
/// exp(-lambda + n log lambda - lgamma(n+1)); for lambda ~ 1e5+ the three
/// O(1e6) terms cancel, leaving a relative error of order
/// lambda*log(lambda)*ulp (~1e-9 at lambda = 2.5e5).  When eps is below
/// that floor the cumulative sum can plateau short of 1 - eps, so stop
/// once the pmf underflows past the mode instead of looping forever.
std::uint64_t reference_truncation(double lambda, double eps) {
  KahanSum cumulative;
  for (std::uint64_t k = 0;; ++k) {
    const double p = poisson_pmf(k, lambda);
    cumulative.add(p);
    if (cumulative.value() >= 1.0 - eps) return k;
    if (p == 0.0 && static_cast<double>(k) > lambda) return k;  // fp plateau
  }
}

/// Double-precision accuracy floor for Poisson masses at rate lambda: no
/// eps below this is achievable, so assertions on 1 - eps targets must
/// allow it.  Scales like the cancellation error described above.
double poisson_fp_slack(double lambda) {
  return 1e-12 + 4e-15 * lambda * std::max(1.0, std::log(std::max(lambda, 2.0)));
}

}  // namespace

/// (lambda, epsilon) grid covering the regimes the paper's models hit:
/// E*t < 1 (short horizons), moderate, and E*t >= 1e5 at eps <= 1e-12.
class PoissonWindowStress : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PoissonWindowStress, WeightsAreNormalized) {
  const auto [lambda, eps] = GetParam();
  const auto w = PoissonWindow::compute(lambda, eps);
  KahanSum sum;
  for (const double weight : w.weights()) {
    EXPECT_GE(weight, 0.0);
    sum.add(weight);
  }
  const double slack = poisson_fp_slack(lambda);
  EXPECT_NEAR(sum.value(), w.total_mass(), 1e-12);
  EXPECT_GE(w.total_mass(), 1.0 - eps - slack);
  EXPECT_LE(w.total_mass(), 1.0 + slack);
}

TEST_P(PoissonWindowStress, TailMassIsMonotoneNonIncreasing) {
  const auto [lambda, eps] = GetParam();
  const auto w = PoissonWindow::compute(lambda, eps);
  // Sample the window densely enough to catch any inversion without
  // quadratic cost at lambda = 2.5e5.
  const std::uint64_t width = w.right() - w.left() + 1;
  const std::uint64_t stride = std::max<std::uint64_t>(1, width / 512);
  double previous = w.tail_mass(w.left());
  for (std::uint64_t n = w.left(); n <= w.right(); n += stride) {
    const double mass = w.tail_mass(n);
    EXPECT_LE(mass, previous + 1e-15) << "lambda=" << lambda << " n=" << n;
    previous = mass;
  }
  EXPECT_DOUBLE_EQ(w.tail_mass(w.right() + 1), 0.0);
}

TEST_P(PoissonWindowStress, TruncationPointMatchesReferenceBound) {
  const auto [lambda, eps] = GetParam();
  const auto w = PoissonWindow::compute(lambda, eps);
  const double slack = poisson_fp_slack(lambda);
  // Window mass >= 1 - eps forces cumulative(right) >= 1 - eps (modulo the
  // fp floor), so right can never undercut the one-sided reference point.
  EXPECT_GE(w.right(), reference_truncation(lambda, eps + slack));
  if (w.total_mass() >= 1.0 - eps) {
    // The target was reachable in double precision, so the outward scan
    // stopped at the optimal point: within a few steps of the reference
    // (a factor of 100 in eps moves the Gaussian-decay tail by O(1) steps).
    EXPECT_LE(w.right(), reference_truncation(lambda, eps / 100.0) + 10);
  }
}

TEST_P(PoissonWindowStress, WeightsMatchReferencePmfAtExtremes) {
  const auto [lambda, eps] = GetParam();
  const auto w = PoissonWindow::compute(lambda, eps);
  const std::uint64_t mode = static_cast<std::uint64_t>(lambda);
  for (const std::uint64_t n :
       {w.left(), (w.left() + mode) / 2, mode, (mode + w.right()) / 2, w.right()}) {
    if (n < w.left() || n > w.right()) continue;
    // The window weights come from ratio recurrences off the mode while the
    // reference evaluates lgamma at n; their errors are independent, so the
    // comparison is only meaningful up to the fp floor.
    const double ref = poisson_pmf(n, lambda);
    EXPECT_NEAR(w.psi(n), ref, 1e-15 + 100.0 * poisson_fp_slack(lambda) * ref)
        << "lambda=" << lambda << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Extremes, PoissonWindowStress,
    ::testing::Combine(::testing::Values(0.05, 0.9, 4.5, 1e5, 2.5e5),
                       ::testing::Values(1e-6, 1e-12, 1e-13)));

// --------------------------------------------------------------- parallel

TEST(WorkerPool, SerialPoolRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(10, 0);
  pool.run(hits.size(), [&](unsigned worker, std::size_t begin, std::size_t end) {
    EXPECT_EQ(worker, 0u);
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPool, ChunksPartitionTheRange) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(1023);
  for (int round = 0; round < 3; ++round) {  // pool survives repeated sweeps
    pool.run(hits.size(), [&](unsigned, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

TEST(WorkerPool, MoreWorkersThanRows) {
  WorkerPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.run(hits.size(), [&](unsigned, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  pool.run(0, [&](unsigned, std::size_t begin, std::size_t end) { EXPECT_EQ(begin, end); });
}

TEST(WorkerPool, ReduceMaxOverSlots) {
  std::vector<WorkerPool::Slot> slots(3);
  slots[0].value = 0.25;
  slots[1].value = 2.0;
  slots[2].value = 1.0;
  EXPECT_DOUBLE_EQ(WorkerPool::reduce_max(slots), 2.0);
  EXPECT_DOUBLE_EQ(WorkerPool::reduce_max({}), 0.0);
  // A NaN slot is the result, wherever it sits: a finite slot after it must
  // not overwrite it, or the sweep's finiteness check would never fire.
  slots[0].value = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(WorkerPool::reduce_max(slots)));
  slots[0].value = 0.25;
  slots[2].value = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(WorkerPool::reduce_max(slots)));
}

TEST(ResolveThreads, ZeroPicksHardwareConcurrency) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(6), 6u);
}

TEST(TeamSize, DefaultTeamFollowsTheRowGrain) {
  // threads = 0: one worker per kSweepRowsPerWorker rows, within [1, cores].
  EXPECT_EQ(team_size(0, 0, kSweepRowsPerWorker), 1u);
  EXPECT_EQ(team_size(0, 58, kSweepRowsPerWorker), 1u);
  EXPECT_EQ(team_size(0, 2 * kSweepRowsPerWorker - 1, kSweepRowsPerWorker), 1u);
  EXPECT_EQ(team_size(0, 2 * kSweepRowsPerWorker, kSweepRowsPerWorker),
            std::min(2u, resolve_threads(0)));
  EXPECT_EQ(team_size(0, std::size_t{1} << 30, kSweepRowsPerWorker), resolve_threads(0));
  EXPECT_EQ(make_worker_pool(0, 58).size(), 1u);
  // An explicit count is taken as given, capped at the rows only.
  EXPECT_EQ(team_size(4, 58, kSweepRowsPerWorker), 4u);
  EXPECT_EQ(team_size(4, 2, kSweepRowsPerWorker), 2u);
  EXPECT_EQ(team_size(3, 0, kSweepRowsPerWorker), 1u);
  // A grain of 1 keeps the old rule: every core, capped at the items.
  EXPECT_EQ(team_size(0, std::size_t{1} << 30, 1), resolve_threads(0));
  EXPECT_EQ(team_size(0, 1, 1), 1u);
}

// --------------------------------------------------------------- numerics

TEST(KahanSum, CompensatesSmallAddends) {
  KahanSum sum;
  sum.add(1.0);
  for (int i = 0; i < 10000000; ++i) sum.add(1e-16);
  EXPECT_NEAR(sum.value(), 1.0 + 1e-9, 1e-12);
}

TEST(Numerics, MaxAbsDiff) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.5, 2.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
  // A NaN difference latches, wherever it sits: it must not read as agreement.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(max_abs_diff(std::vector<double>{nan, 2.0, 3.0}, b)));
  EXPECT_TRUE(std::isnan(max_abs_diff(a, std::vector<double>{1.0, 2.5, nan})));
}

TEST(Numerics, LatchingMaxKeepsNaN) {
  EXPECT_DOUBLE_EQ(latching_max(1.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(latching_max(2.0, 1.0), 2.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(latching_max(1.0, nan)));
  // NaN first, finite after: the NaN stays.
  double acc = 0.0;
  for (const double x : {nan, 0.5, 3.0, 0.0}) acc = latching_max(acc, x);
  EXPECT_TRUE(std::isnan(acc));
  // Finite inputs fold exactly as std::max, signed zeros included.
  EXPECT_TRUE(std::signbit(latching_max(-0.0, 0.0)) == std::signbit(std::max(-0.0, 0.0)));
  EXPECT_TRUE(std::signbit(latching_max(0.0, -0.0)) == std::signbit(std::max(0.0, -0.0)));
}

TEST(Numerics, Clamp01) {
  EXPECT_DOUBLE_EQ(clamp01(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(clamp01(1.1), 1.0);
  EXPECT_DOUBLE_EQ(clamp01(0.5), 0.5);
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(7), 7u);
  EXPECT_THROW(rng.next_below(0), ModelError);
}

TEST(Rng, ExponentialMeanApproximatesInverseRate) {
  Rng rng(3);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(4);
  const std::vector<double> weights{1.0, 3.0};
  int counts[2] = {0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_discrete(weights)];
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
  EXPECT_THROW(rng.next_discrete({}), ModelError);
}

}  // namespace
}  // namespace unicon
