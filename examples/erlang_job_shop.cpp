// A job shop with Erlang service times and a nondeterministic scheduler.
//
// One machine, four pending jobs: two *light* jobs (service time
// Erlang(2, 8.0), mean 0.25) and two *heavy* jobs (Erlang(4, 2.0),
// mean 2.0).  Whenever the machine is free the scheduler picks the class of
// the next job — a genuine nondeterministic decision.  We compute the best-
// and worst-case probability that BOTH LIGHT JOBS are finished within t:
// a light-first policy maximizes it, a heavy-first policy minimizes it.
//
// The example exercises multi-phase (non-exponential) time constraints via
// the elapse operator: the composed system is uniform by construction even
// though the service times are far from memoryless.
#include <cstdio>
#include <string>

#include "core/analysis.hpp"
#include "core/time_constraint.hpp"
#include "imc/compose.hpp"
#include "lts/lts.hpp"

using namespace unicon;

namespace {

constexpr unsigned kLight = 2;
constexpr unsigned kHeavy = 2;

/// Machine: free --start_light--> busy --done_light--> free, same for heavy.
Lts machine_lts(const std::shared_ptr<ActionTable>& actions) {
  LtsBuilder b(actions);
  const StateId free_state = b.add_state("free");
  const StateId busy_light = b.add_state("busy_light");
  const StateId busy_heavy = b.add_state("busy_heavy");
  b.set_initial(free_state);
  b.add_transition(free_state, "start_light", busy_light);
  b.add_transition(busy_light, "done_light", free_state);
  b.add_transition(free_state, "start_heavy", busy_heavy);
  b.add_transition(busy_heavy, "done_heavy", free_state);
  return b.build();
}

/// Job pool: tracks pending starts per class and completed light jobs.
Lts pool_lts(const std::shared_ptr<ActionTable>& actions) {
  LtsBuilder b(actions);
  // State (lp, hp, ld): light/heavy pending, light done.
  std::vector<StateId> ids((kLight + 1) * (kHeavy + 1) * (kLight + 1), kNoState);
  auto idx = [](unsigned lp, unsigned hp, unsigned ld) {
    return (lp * (kHeavy + 1) + hp) * (kLight + 1) + ld;
  };
  for (unsigned lp = 0; lp <= kLight; ++lp) {
    for (unsigned hp = 0; hp <= kHeavy; ++hp) {
      for (unsigned ld = 0; ld + lp <= kLight; ++ld) {
        ids[idx(lp, hp, ld)] =
            b.add_state(ld == kLight ? "lights_done" : "lp" + std::to_string(lp));
      }
    }
  }
  b.set_initial(ids[idx(kLight, kHeavy, 0)]);
  for (unsigned lp = 0; lp <= kLight; ++lp) {
    for (unsigned hp = 0; hp <= kHeavy; ++hp) {
      for (unsigned ld = 0; ld + lp <= kLight; ++ld) {
        const StateId from = ids[idx(lp, hp, ld)];
        if (lp > 0) b.add_transition(from, "start_light", ids[idx(lp - 1, hp, ld)]);
        if (hp > 0) b.add_transition(from, "start_heavy", ids[idx(lp, hp - 1, ld)]);
        if (ld + lp < kLight) b.add_transition(from, "done_light", ids[idx(lp, hp, ld + 1)]);
        b.add_transition(from, "done_heavy", from);  // heavy completions just free the machine
      }
    }
  }
  return b.build();
}

}  // namespace

int main() {
  auto actions = std::make_shared<ActionTable>();

  const Lts machine = machine_lts(actions);
  std::vector<TimeConstraint> constraints;
  constraints.emplace_back(PhaseType::erlang(2, 8.0), "done_light", "start_light");
  constraints.emplace_back(PhaseType::erlang(4, 2.0), "done_heavy", "start_heavy");
  ExploreOptions opts;
  opts.record_names = true;
  const Imc machine_imc = apply_time_constraints(machine, constraints, opts);

  std::unordered_set<Action> sync;
  for (const char* a : {"start_light", "start_heavy", "done_light", "done_heavy"}) {
    sync.insert(actions->intern(a));
  }
  CompositionExpr expr =
      CompositionExpr::parallel(CompositionExpr::leaf(machine_imc), std::move(sync),
                                CompositionExpr::leaf(imc_from_lts(pool_lts(actions))));

  ExploreOptions explore;
  explore.record_names = true;
  explore.urgent = true;  // closed system
  const Imc system = expr.explore(explore);
  std::printf(
      "job shop: %zu states, uniform rate E = %.3f "
      "(light Erlang(2,8), heavy Erlang(4,2), %u + %u jobs)\n",
      system.num_states(), *system.uniform_rate(UniformityView::Closed), kLight, kHeavy);

  std::vector<bool> goal(system.num_states());
  for (StateId s = 0; s < system.num_states(); ++s) {
    goal[s] = system.state_name(s).find("lights_done") != std::string::npos;
  }

  std::printf("\n%8s  %22s  %22s\n", "t", "best (light first)", "worst (heavy first)");
  for (double t : {0.5, 1.0, 2.0, 3.0, 4.0, 6.0}) {
    UimcAnalysisOptions options;
    options.reachability.epsilon = 1e-8;
    const double best = analyze_timed_reachability(system, goal, t, options).value;
    options.reachability.objective = Objective::Minimize;
    const double worst = analyze_timed_reachability(system, goal, t, options).value;
    std::printf("%8.1f  %22.8f  %22.8f\n", t, best, worst);
  }
  std::printf(
      "\nsup/inf over all time-abstract schedulers of P(both light jobs done\n"
      "within t); the gap is the price of serving heavy jobs first.\n");
  return 0;
}
