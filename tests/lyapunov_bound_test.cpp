// Unit tests for the Lyapunov-certificate truncation support
// (support/lyapunov_bound.hpp): name parsing, plan resolution and the
// scalar series-bound arithmetic the solvers' stop decisions rest on.
#include "support/lyapunov_bound.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/errors.hpp"

using namespace unicon;

TEST(TruncationNames, RoundTrip) {
  for (const Truncation mode :
       {Truncation::Auto, Truncation::FoxGlynn, Truncation::Lyapunov}) {
    EXPECT_EQ(parse_truncation(truncation_name(mode)), mode);
  }
  EXPECT_THROW(parse_truncation("foxglynn"), ModelError);
  EXPECT_THROW(parse_truncation(""), ModelError);
  EXPECT_THROW(parse_truncation("AUTO"), ModelError);
}

TEST(TruncationPlan, FoxGlynnNeverEngages) {
  const TruncationPlan plan = plan_truncation(Truncation::FoxGlynn, 5000.0, 1e-6);
  EXPECT_EQ(plan.resolved, Truncation::FoxGlynn);
  EXPECT_FALSE(plan.engaged());
  EXPECT_EQ(plan.window_epsilon, 1e-6);
  EXPECT_EQ(plan.stop_epsilon, 0.0);
  EXPECT_EQ(plan.window.left(), plan.fox_glynn_left);
  EXPECT_EQ(plan.window.right(), plan.fox_glynn_right);
}

TEST(TruncationPlan, AutoStaysFoxGlynnOnShortHorizons) {
  // lambda = 100: the window starts near 0, far below the engage threshold.
  const TruncationPlan plan = plan_truncation(Truncation::Auto, 100.0, 1e-6);
  EXPECT_EQ(plan.resolved, Truncation::FoxGlynn);
  EXPECT_LE(plan.window.left(), kLyapunovAutoEngageLeft);
  EXPECT_EQ(plan.window_epsilon, 1e-6);
}

TEST(TruncationPlan, AutoEngagesOnLongHorizons) {
  // lambda = 2000: left ~ 1700 > 1024.
  const TruncationPlan plan = plan_truncation(Truncation::Auto, 2000.0, 1e-6);
  ASSERT_GT(plan.fox_glynn_left, kLyapunovAutoEngageLeft);
  EXPECT_EQ(plan.resolved, Truncation::Lyapunov);
  EXPECT_TRUE(plan.engaged());
  EXPECT_EQ(plan.window_epsilon, 5e-7);
  EXPECT_EQ(plan.stop_epsilon, 5e-7);
  // The half-epsilon window is recomputed: it can only be wider, and the
  // recorded baseline still reflects the full-epsilon Fox-Glynn window.
  EXPECT_LE(plan.window.left(), plan.fox_glynn_left);
  EXPECT_GE(plan.window.right(), plan.fox_glynn_right);
  // The epsilon split keeps the total budget: window + stop == requested.
  EXPECT_DOUBLE_EQ(plan.window_epsilon + plan.stop_epsilon, 1e-6);
}

TEST(TruncationPlan, ExplicitLyapunovEngagesAboveLeftOne) {
  // lambda = 30 is far below the auto threshold but has left > 1.
  const TruncationPlan explicit_plan = plan_truncation(Truncation::Lyapunov, 30.0, 1e-6);
  ASSERT_GT(explicit_plan.fox_glynn_left, 1u);
  EXPECT_EQ(explicit_plan.resolved, Truncation::Lyapunov);

  const TruncationPlan auto_plan = plan_truncation(Truncation::Auto, 30.0, 1e-6);
  EXPECT_EQ(auto_plan.resolved, Truncation::FoxGlynn);

  // A window pinned at left <= 1 has no below-window sweeps to save: even
  // an explicit request degrades to Fox-Glynn.
  const TruncationPlan tiny = plan_truncation(Truncation::Lyapunov, 0.5, 1e-6);
  ASSERT_LE(tiny.fox_glynn_left, 1u);
  EXPECT_EQ(tiny.resolved, Truncation::FoxGlynn);
  EXPECT_EQ(tiny.window_epsilon, 1e-6);
}

TEST(LyapunovSeries, SeriesBoundMatchesGeometricDecay) {
  LyapunovSeries series(1e-6);
  // ubar_j = 2^-j: submultiplicative, contracting.
  series.record(0.5);
  series.record(0.25);
  series.record(0.125);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series.ubar(1), 0.5);
  EXPECT_DOUBLE_EQ(series.ubar(3), 0.125);
  // bound(age) = (sum_{m<age} ubar_m) / (1 - ubar_age), ubar_0 = 1: the
  // geometric tail majorant from the last observed contraction factor.
  EXPECT_DOUBLE_EQ(series.series_bound(1), 1.0 / (1.0 - 0.5));
  EXPECT_DOUBLE_EQ(series.series_bound(3), (1.0 + 0.5 + 0.25) / (1.0 - 0.125));
  // The true series sum is 2; on exactly geometric decay the majorant is
  // tight, so every bound must dominate it and age 1 already attains it.
  EXPECT_GE(series.series_bound(1), 2.0);
  EXPECT_GE(series.series_bound(3), 2.0);
}

TEST(LyapunovSeries, CertifiesOnlyWithinStopBudget) {
  LyapunovSeries series(1e-6);
  series.record(0.5);  // bound = 1 / (1 - 0.5) = 2
  EXPECT_TRUE(series.certifies(1e-7, 1));   // 2e-7 <= 1e-6
  EXPECT_FALSE(series.certifies(1e-6, 1));  // 2e-6 > 1e-6
  EXPECT_DOUBLE_EQ(series.stop_error(1e-7, 1), 2e-7);
  // Zero delta certifies at any age with zero forfeited error.
  EXPECT_TRUE(series.certifies(0.0, 1));
  EXPECT_EQ(series.stop_error(0.0, 1), 0.0);
}

TEST(LyapunovSeries, NoContractionNeverCertifies) {
  LyapunovSeries series(1e-6);
  series.record(1.0);
  EXPECT_EQ(series.series_bound(1), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(series.certifies(1e-300, 1));
  series.record(1.5);  // super-stochastic garbage must not certify either
  EXPECT_FALSE(series.certifies(0.0, 2) && series.series_bound(2) < 1.0e308);
}

TEST(LyapunovSeries, NanPoisonNeverCertifies) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LyapunovSeries series(1e-6);
  series.record(nan);
  EXPECT_TRUE(std::isinf(series.series_bound(1)));
  EXPECT_FALSE(series.certifies(0.0, 1));
  // A NaN delta against a healthy record must not certify.
  LyapunovSeries healthy(1e-6);
  healthy.record(0.25);
  EXPECT_FALSE(healthy.certifies(nan, 1));
}

TEST(LyapunovSeries, DisengagesAtProbeCapWithoutContraction) {
  LyapunovSeries slow(1e-6, /*probe_cap=*/4);
  for (int i = 0; i < 4; ++i) slow.record(0.99);
  EXPECT_FALSE(slow.should_disengage(3));
  EXPECT_TRUE(slow.should_disengage(4));

  LyapunovSeries fast(1e-6, /*probe_cap=*/4);
  for (int i = 0; i < 4; ++i) fast.record(0.4);
  EXPECT_FALSE(fast.should_disengage(4));  // contracted: keep certifying
}

TEST(LyapunovSeries, ProbeBudgetStopsWhereProbesCatchUpWithSkippableSweeps) {
  // CTMDP at step g of a window with left point L: age L - g against the
  // g - 1 sweeps a stop would skip.  L = 2750 admits ages up to 1374.
  const std::uint64_t left = 2750;
  EXPECT_TRUE(LyapunovSeries::within_budget(left - 1376, 1376 - 1));
  EXPECT_FALSE(LyapunovSeries::within_budget(left - 1375, 1375 - 1));
  // Monotone: once past the cutoff, every later (smaller) step stays past.
  for (std::uint64_t g = 1375; g >= 2; --g) {
    EXPECT_FALSE(LyapunovSeries::within_budget(left - g, g - 1)) << g;
  }
  EXPECT_FALSE(LyapunovSeries::within_budget(0, 0));
}
