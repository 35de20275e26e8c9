#include "core/analysis.hpp"

#include <string>

#include "support/errors.hpp"

namespace unicon {

namespace {

/// The steps both entry points share: the closed-view uniformity check, the
/// transformation into @p out, and the goal transfer the objective solves on
/// (existential for sup, universal for inf), which it returns.
const BitVector& transform_for_solve(const Imc& m, const BitVector& goal,
                                     const UimcAnalysisOptions& options, const char* who,
                                     TransformResult& out) {
  if (!m.is_uniform(UniformityView::Closed, 1e-6)) {
    throw UniformityError(std::string(who) +
                          ": model is not uniform (closed view); "
                          "build it uniformly by construction or uniformize it first");
  }
  out = transform_to_ctmdp(m, &goal, options.reachability.guard, options.reachability.telemetry);
  return options.reachability.objective == Objective::Maximize ? out.goal : out.goal_universal;
}

}  // namespace

UimcAnalysisResult analyze_timed_reachability(const Imc& m, const BitVector& goal,
                                              double t, const UimcAnalysisOptions& options) {
  UimcAnalysisResult result;
  const BitVector& ctmdp_goal =
      transform_for_solve(m, goal, options, "analyze_timed_reachability", result.transformed);
  const Ctmdp& ctmdp = result.transformed.ctmdp;
  result.reachability = timed_reachability(ctmdp, ctmdp_goal, t, options.reachability);
  result.value = result.reachability.values[ctmdp.initial()];
  return result;
}

UimcBatchAnalysisResult analyze_timed_reachability_batch(const Imc& m, const BitVector& goal,
                                                         const std::vector<double>& times,
                                                         const UimcAnalysisOptions& options) {
  UimcBatchAnalysisResult result;
  const BitVector& ctmdp_goal = transform_for_solve(
      m, goal, options, "analyze_timed_reachability_batch", result.transformed);
  const Ctmdp& ctmdp = result.transformed.ctmdp;
  result.reachability = timed_reachability_batch(ctmdp, ctmdp_goal, times, options.reachability);
  for (const TimedReachabilityResult& r : result.reachability) {
    result.values.push_back(r.values[ctmdp.initial()]);
  }
  return result;
}

}  // namespace unicon
