// Quickstart: the full "uniformity by construction" pipeline on a small
// hand-built model.
//
// Two redundant servers keep a service alive; each fails after an
// exponential delay (mean 100 h) and takes an exponential repair (mean
// 2 h).  A single technician repairs one server at a time — *which* failed
// server to repair first is a nondeterministic decision.  We ask for the
// worst-case probability that both servers are ever down simultaneously
// within a mission time of t hours.
//
// Pipeline:  LTS components  --elapse-->  uniform IMCs  --parallel/hide-->
//            closed uIMC  --minimize-->  smaller uIMC  --transform-->
//            uCTMDP  --Algorithm 1-->  worst-case probability.
#include <cstdio>

#include "bisim/bisimulation.hpp"
#include "core/analysis.hpp"
#include "core/time_constraint.hpp"
#include "imc/compose.hpp"
#include "lts/lts.hpp"

using namespace unicon;

namespace {

/// A server: up --fail--> down --grab_i--> repairing --repair--> up.
Lts server_lts(const std::shared_ptr<ActionTable>& actions, const std::string& id) {
  LtsBuilder b(actions);
  const StateId up = b.add_state("up");
  const StateId down = b.add_state("down");
  const StateId repairing = b.add_state("down");  // still down while repaired
  b.set_initial(up);
  b.add_transition(up, "fail", down);
  b.add_transition(down, "grab_" + id, repairing);
  b.add_transition(repairing, "repair_done_" + id, up);
  return b.build();
}

Imc server_imc(const std::shared_ptr<ActionTable>& actions, const std::string& id) {
  const Lts lts = server_lts(actions, id);
  std::vector<TimeConstraint> constraints;
  // Failure delay runs from the start and re-arms when the repair is done.
  constraints.emplace_back(PhaseType::exponential(1.0 / 100.0), "fail", "repair_done_" + id,
                           /*running=*/true);
  // Repair delay starts when the technician picks the server up.
  constraints.emplace_back(PhaseType::exponential(0.5), "repair_done_" + id, "grab_" + id);
  ExploreOptions options;
  options.record_names = true;
  Imc composed = apply_time_constraints(lts, constraints, options);
  return composed.hide({actions->intern("fail")});
}

}  // namespace

int main() {
  auto actions = std::make_shared<ActionTable>();

  // 1. Components: two servers (uniform IMCs by construction) and the
  //    technician, who serves one grab/done cycle at a time.
  Imc server_a = server_imc(actions, "a");
  Imc server_b = server_imc(actions, "b");

  LtsBuilder tech_builder(actions);
  const StateId idle = tech_builder.add_state("idle");
  const StateId busy_a = tech_builder.add_state("busy_a");
  const StateId busy_b = tech_builder.add_state("busy_b");
  tech_builder.set_initial(idle);
  tech_builder.add_transition(idle, "grab_a", busy_a);
  tech_builder.add_transition(busy_a, "repair_done_a", idle);
  tech_builder.add_transition(idle, "grab_b", busy_b);
  tech_builder.add_transition(busy_b, "repair_done_b", idle);
  Imc technician = imc_from_lts(tech_builder.build());

  std::printf("server IMC: %zu states, uniform (open view): %s\n", server_a.num_states(),
              server_a.is_uniform() ? "yes" : "no");

  // 2. Composition: servers interleaved, synchronized with the technician.
  std::unordered_set<Action> sync;
  for (const char* a : {"grab_a", "grab_b", "repair_done_a", "repair_done_b"}) {
    sync.insert(actions->intern(a));
  }
  CompositionExpr expr = CompositionExpr::parallel(
      CompositionExpr::interleave(CompositionExpr::leaf(server_a), CompositionExpr::leaf(server_b)),
      std::move(sync), CompositionExpr::leaf(technician));

  ExploreOptions explore;
  explore.record_names = true;
  explore.urgent = true;  // complete system: urgency applies
  Imc system = expr.explore(explore);
  std::printf("composed system: %zu states, %zu interactive + %zu Markov transitions\n",
              system.num_states(), system.num_interactive_transitions(),
              system.num_markov_transitions());
  std::printf("uniform by construction (closed view): %s, rate E = %.4f\n",
              system.is_uniform(UniformityView::Closed) ? "yes" : "no",
              *system.uniform_rate(UniformityView::Closed));

  // 3. The property: both servers down simultaneously.  Component state
  //    names were chosen so the composite names expose the status.
  std::vector<bool> goal(system.num_states());
  for (StateId s = 0; s < system.num_states(); ++s) {
    const std::string& name = system.state_name(s);
    // Name layout: (serverA..., serverB..., technician); each server
    // contributes "up"/"down" plus its two timer states.
    std::size_t downs = 0;
    for (std::size_t pos = name.find("down"); pos != std::string::npos;
         pos = name.find("down", pos + 1)) {
      ++downs;
    }
    goal[s] = downs >= 2;
  }

  // 4. Transform to a uCTMDP and run the timed reachability algorithm.
  for (double t : {24.0, 72.0, 168.0, 720.0}) {
    UimcAnalysisOptions options;
    options.reachability.epsilon = 1e-6;
    const UimcAnalysisResult worst = analyze_timed_reachability(system, goal, t, options);
    options.reachability.objective = Objective::Minimize;
    const UimcAnalysisResult best = analyze_timed_reachability(system, goal, t, options);
    std::printf(
        "t = %6.0f h: worst-case P(outage) = %.6f   best-case = %.6f   "
        "(CTMDP: %zu states, %zu transitions, k = %llu iterations)\n",
        t, worst.value, best.value, worst.transformed.ctmdp.num_states(),
        worst.transformed.ctmdp.num_transitions(),
        static_cast<unsigned long long>(worst.reachability.iterations_planned));
  }

  // 5. Minimization (stochastic branching bisimulation, Def. 6) respecting
  //    the goal predicate gives the same answer on a smaller model.
  std::vector<std::uint32_t> labels(system.num_states());
  for (StateId s = 0; s < system.num_states(); ++s) labels[s] = goal[s] ? 1 : 0;
  const Imc hidden = system.hide_all();
  const Partition partition = branching_bisimulation(hidden, &labels);
  const Imc minimized = quotient(hidden, partition);
  std::vector<bool> minimized_goal(minimized.num_states());
  for (StateId s = 0; s < system.num_states(); ++s) {
    if (goal[s]) minimized_goal[partition.block_of[s]] = true;
  }
  const double t = 168.0;
  const double original = analyze_timed_reachability(system, goal, t).value;
  const double reduced = analyze_timed_reachability(minimized, minimized_goal, t).value;
  std::printf(
      "\nminimized (goal-respecting stochastic branching bisimulation): "
      "%zu -> %zu states, P at t=%.0fh: %.8f vs %.8f\n",
      system.num_states(), minimized.num_states(), t, original, reduced);
  return 0;
}
