// A train-control safety study, echoing the paper's motivation: its
// authors used the same machinery to verify STATEMATE train-control models
// against properties like "the probability to hit a safety-critical
// configuration within a mission time of 3 hours is at most 0.01".
//
// The system: trains pass a level crossing.  A sensor announces each
// approach so the gate closes in time; both sensor and gate can fail and a
// single maintenance crew repairs one of them at a time — *which* one first
// is a nondeterministic decision.  A passage while the sensor or the gate
// is broken is safety-critical.
//
// The example then asks the solvers directly for worst- and best-case
// probabilities and expected times on the transformed CTMDP.
#include <cstdio>
#include <string>
#include <utility>

#include "core/analysis.hpp"
#include "core/time_constraint.hpp"
#include "ctmdp/unbounded.hpp"
#include "imc/compose.hpp"
#include "lts/lts.hpp"

using namespace unicon;

namespace {

/// Trains: away --approach--> crossing --pass--> away.
Lts train_lts(const std::shared_ptr<ActionTable>& actions) {
  LtsBuilder b(actions);
  const StateId away = b.add_state("away");
  const StateId crossing = b.add_state("crossing");
  b.set_initial(away);
  b.add_transition(away, "approach", crossing);
  b.add_transition(crossing, "pass", away);
  return b.build();
}

/// A repairable unit (sensor / gate): ok --fail_u--> broken --grab_u-->
/// fixing --fixed_u--> ok.
Lts unit_lts(const std::shared_ptr<ActionTable>& actions, const std::string& u) {
  LtsBuilder b(actions);
  const StateId ok = b.add_state("ok");
  const StateId broken = b.add_state("broken_" + u);
  const StateId fixing = b.add_state("broken_" + u);
  b.set_initial(ok);
  b.add_transition(ok, "fail_" + u, broken);
  b.add_transition(broken, "grab_" + u, fixing);
  b.add_transition(fixing, "fixed_" + u, ok);
  return b.build();
}

Imc unit_imc(const std::shared_ptr<ActionTable>& actions, const std::string& u,
             double fail_rate, double repair_rate) {
  std::vector<TimeConstraint> constraints;
  constraints.emplace_back(PhaseType::exponential(fail_rate), "fail_" + u, "fixed_" + u,
                           /*running=*/true);
  constraints.emplace_back(PhaseType::exponential(repair_rate), "fixed_" + u, "grab_" + u);
  ExploreOptions options;
  options.record_names = true;
  Imc composed = apply_time_constraints(unit_lts(actions, u), constraints, options);
  return composed.hide({actions->intern("fail_" + u)});
}

}  // namespace

int main() {
  auto actions = std::make_shared<ActionTable>();

  // Trains arrive every 2 h on average; a passage takes ~3 min.
  std::vector<TimeConstraint> train_timing;
  train_timing.emplace_back(PhaseType::exponential(0.5), "approach", "pass", /*running=*/true);
  train_timing.emplace_back(PhaseType::exponential(20.0), "pass", "approach");
  ExploreOptions comp_options;
  comp_options.record_names = true;
  const Imc trains = apply_time_constraints(train_lts(actions), train_timing, comp_options);

  // Two redundant sensors (MTTF 50 h, repair 1 h) and the gate (MTTF
  // 100 h, repair 2 h).  The crew queue is what makes the dispatch a real
  // decision: while one unit is under repair others may break, and on
  // release the crew must pick.
  const Imc sensor1 = unit_imc(actions, "sen1", 1.0 / 50.0, 1.0);
  const Imc sensor2 = unit_imc(actions, "sen2", 1.0 / 50.0, 1.0);
  const Imc gate = unit_imc(actions, "gate", 1.0 / 100.0, 0.5);

  // One maintenance crew, nondeterministic dispatch.
  LtsBuilder crew_builder(actions);
  const StateId idle = crew_builder.add_state("idle");
  crew_builder.set_initial(idle);
  for (const char* u : {"sen1", "sen2", "gate"}) {
    const StateId at = crew_builder.add_state(std::string("at_") + u);
    crew_builder.add_transition(idle, std::string("grab_") + u, at);
    crew_builder.add_transition(at, std::string("fixed_") + u, idle);
  }
  const Imc crew = imc_from_lts(crew_builder.build());

  std::unordered_set<Action> crew_sync;
  for (const char* u : {"sen1", "sen2", "gate"}) {
    crew_sync.insert(actions->intern(std::string("grab_") + u));
    crew_sync.insert(actions->intern(std::string("fixed_") + u));
  }
  CompositionExpr expr = CompositionExpr::parallel(
      CompositionExpr::interleave(
          CompositionExpr::interleave(
              CompositionExpr::interleave(CompositionExpr::leaf(trains),
                                          CompositionExpr::leaf(sensor1)),
              CompositionExpr::leaf(sensor2)),
          CompositionExpr::leaf(gate)),
      std::move(crew_sync), CompositionExpr::leaf(crew));

  ExploreOptions explore;
  explore.record_names = true;
  explore.urgent = true;
  const Imc system = expr.explore(explore);
  std::printf("train-control system: %zu states, uniform rate E = %.4f (by construction)\n",
              system.num_states(), *system.uniform_rate(UniformityView::Closed, 1e-6));

  // Safety-critical: a train on the crossing while the gate is broken or
  // both (redundant) sensors are down.
  BitVector unsafe(system.num_states());
  for (StateId s = 0; s < system.num_states(); ++s) {
    const std::string& name = system.state_name(s);
    const bool crossing = name.find("crossing") != std::string::npos;
    const bool gate_broken = name.find("broken_gate") != std::string::npos;
    const bool sensors_down = name.find("broken_sen1") != std::string::npos &&
                              name.find("broken_sen2") != std::string::npos;
    unsafe[s] = crossing && (gate_broken || sensors_down);
  }

  const auto transformed = transform_to_ctmdp(system, &unsafe);
  std::printf("uCTMDP: %zu states, %zu transitions\n\n", transformed.ctmdp.num_states(),
              transformed.ctmdp.num_transitions());

  // Each query picks the goal transfer of Sec. 4.1 that matches its
  // scheduler: one that seeks the unsafe states (Pmax, Tmin) reads the
  // existential transfer, one that avoids them (Pmin, Tmax) the universal
  // one.  Only the rows are labelled in CSL-style syntax.
  const Ctmdp& ctmdp = transformed.ctmdp;
  const auto goal_for = [&](bool seeks) -> const BitVector& {
    return seeks ? transformed.goal : transformed.goal_universal;
  };
  const auto probability = [&](Objective objective, double t) {
    TimedReachabilityOptions options;
    options.objective = objective;
    const BitVector& goal = goal_for(objective == Objective::Maximize);
    return timed_reachability(ctmdp, goal, t, options).values[ctmdp.initial()];
  };
  const auto expected_time = [&](Objective objective) {
    UnboundedOptions options;
    options.objective = objective;
    const BitVector& goal = goal_for(objective == Objective::Minimize);
    return expected_reachability_time(ctmdp, goal, options).values[ctmdp.initial()];
  };

  const double mission = probability(Objective::Maximize, 3.0);
  const std::pair<const char*, double> rows[] = {
      {"Pmax=? [ F<=3 unsafe ]", mission},
      {"Pmin=? [ F<=3 unsafe ]", probability(Objective::Minimize, 3.0)},
      {"Pmax=? [ F<=24 unsafe ]", probability(Objective::Maximize, 24.0)},
      {"Pmax=? [ F<=168 unsafe ]", probability(Objective::Maximize, 168.0)},
      {"Pmin=? [ F<=168 unsafe ]", probability(Objective::Minimize, 168.0)},
      {"Tmax=? [ F unsafe ]", expected_time(Objective::Maximize)},
      {"Tmin=? [ F unsafe ]", expected_time(Objective::Minimize)},
  };
  std::printf("%-44s %14s\n", "query", "value");
  for (const auto& [query, value] : rows) std::printf("%-44s %14.8f\n", query, value);

  std::printf("\nsafety requirement \"P(hit safety-critical within 3 h) <= 0.01\": %s\n",
              mission <= 0.01 ? "SATISFIED (worst case)" : "VIOLATED");
  return 0;
}
