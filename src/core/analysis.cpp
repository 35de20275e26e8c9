#include "core/analysis.hpp"

#include <optional>
#include <string>

#include "support/errors.hpp"

namespace unicon {

namespace {

/// The steps both entry points share: the option check, the closed-view
/// uniformity check, the transformation into @p out, and the goal transfer
/// the objective solves on (existential for sup, universal for inf), which
/// it returns.
const BitVector& transform_for_solve(const Imc& m, const BitVector& goal,
                                     const UimcAnalysisOptions& options, const char* who,
                                     TransformResult& out) {
  const TimedReachabilityOptions& o = options.reachability;
  std::string refused;
  for (const auto& [set, name] : {std::pair{!o.avoid.empty(), "avoid"},
                                  std::pair{o.resume != nullptr, "resume"},
                                  std::pair{o.discrete_kernel != nullptr, "discrete_kernel"},
                                  std::pair{o.dense_kernel != nullptr, "dense_kernel"}}) {
    if (set) refused += std::string(refused.empty() ? "" : ", ") + name;
  }
  if (!refused.empty()) {
    throw ModelError(std::string(who) + ": options " + refused +
                     " index the transformed CTMDP and are not accepted; solve "
                     "transformed.ctmdp directly");
  }
  if (!m.is_uniform(UniformityView::Closed)) {
    throw UniformityError(std::string(who) +
                          ": model is not uniform (closed view); "
                          "build it uniformly by construction or uniformize it first");
  }
  out = transform_to_ctmdp(m, &goal, o.guard, o.telemetry);
  return o.objective == Objective::Maximize ? out.goal : out.goal_universal;
}

/// The goal quotient the solve runs on, recorded in @p reduction, or none:
/// a solve that extracts a scheduler stays on the transformed CTMDP, so
/// its decision table indexes the model a scheduler artifact names.
std::optional<CtmdpGoalQuotient> reduce(const Ctmdp& ctmdp, const BitVector& goal,
                                        const TimedReachabilityOptions& options,
                                        UimcReduction& reduction) {
  if (options.extract_scheduler) return std::nullopt;
  CtmdpGoalQuotient q = goal_quotient(ctmdp, goal, options.guard, options.telemetry);
  reduction.stats = q.stats;
  reduction.defect = q.defect;
  return q;
}

/// Reports a solve of @p q on the model it was lumped from: values and a
/// partial iterate per input state, and the lumping term in the bound.
void lift(TimedReachabilityResult& r, const CtmdpGoalQuotient& q) {
  for (std::vector<double>* v : {&r.values, &r.iterate}) {
    if (v->empty()) continue;
    std::vector<double> lifted(q.state_of.size());
    for (std::size_t s = 0; s < lifted.size(); ++s) lifted[s] = (*v)[q.state_of[s]];
    *v = std::move(lifted);
  }
  r.residual_bound = quotient_residual_bound(r.residual_bound, r.iterations_planned, q.defect);
}

}  // namespace

UimcAnalysisResult analyze_timed_reachability(const Imc& m, const BitVector& goal,
                                              double t, const UimcAnalysisOptions& options) {
  UimcAnalysisResult result;
  const BitVector& ctmdp_goal =
      transform_for_solve(m, goal, options, "analyze_timed_reachability", result.transformed);
  const Ctmdp& ctmdp = result.transformed.ctmdp;
  const std::optional<CtmdpGoalQuotient> q =
      reduce(ctmdp, ctmdp_goal, options.reachability, result.reduction);
  if (q) {
    result.reachability = timed_reachability(q->model, q->goal, t, options.reachability);
    lift(result.reachability, *q);
  } else {
    result.reachability = timed_reachability(ctmdp, ctmdp_goal, t, options.reachability);
  }
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
  const std::optional<CtmdpGoalQuotient> q =
      reduce(ctmdp, ctmdp_goal, options.reachability, result.reduction);
  if (q) {
    result.reachability = timed_reachability_batch(q->model, q->goal, times, options.reachability);
    for (TimedReachabilityResult& r : result.reachability) lift(r, *q);
  } else {
    result.reachability = timed_reachability_batch(ctmdp, ctmdp_goal, times, options.reachability);
  }
  for (const TimedReachabilityResult& r : result.reachability) {
    result.values.push_back(r.values[ctmdp.initial()]);
  }
  return result;
}

}  // namespace unicon
