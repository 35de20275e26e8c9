#include "imc/elapse.hpp"

#include <string>

#include "support/errors.hpp"
#include "support/numerics.hpp"

namespace unicon {

Imc elapse(const PhaseType& ph, Action fire, Action trigger,
           std::shared_ptr<ActionTable> actions, const ElapseOptions& options) {
  if (!actions) throw ModelError("elapse: action table required");
  if (fire == kTau || trigger == kTau) throw ModelError("elapse: fire/trigger must be visible");

  const double max_exit = ph.max_exit_rate();
  const double e = options.uniform_rate == 0.0 ? max_exit : options.uniform_rate;
  if (e < max_exit * (1.0 - kUniformityTolerance)) {
    throw UniformityError("elapse: uniformization rate below maximal phase exit rate");
  }

  const std::size_t n = ph.num_phases();
  ImcBuilder b(std::move(actions));
  const StateId idle = b.add_state("idle");
  for (std::size_t i = 0; i < n; ++i) b.add_state("phase" + std::to_string(i));
  const StateId done = b.add_state("done");

  // Idle: wait for the trigger, keep the Poisson clock ticking.
  b.add_interactive(idle, trigger, static_cast<StateId>(1));
  b.add_markov(idle, e, idle);

  // Phases: uniformized copy of the phase-type chain.
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<StateId>(1 + i);
    double exit = 0.0;
    for (const SparseEntry& t : ph.phase_rates().row(i)) {
      b.add_markov(s, t.value, static_cast<StateId>(1 + t.col));
      exit += t.value;
    }
    if (ph.absorption_rate(i) > 0.0) {
      b.add_markov(s, ph.absorption_rate(i), done);
      exit += ph.absorption_rate(i);
    }
    const double pad = e - exit;
    if (pad > kUniformityTolerance * e) b.add_markov(s, pad, s);
  }

  // Done: offer the fire action, then return to idle.
  b.add_interactive(done, fire, idle);
  b.add_markov(done, e, done);

  b.set_initial(options.initially_running ? static_cast<StateId>(1) : idle);
  return b.build();
}

Imc elapse(const PhaseType& ph, std::string_view fire, std::string_view trigger,
           std::shared_ptr<ActionTable> actions, const ElapseOptions& options) {
  if (!actions) throw ModelError("elapse: action table required");
  const Action f = actions->intern(fire);
  const Action r = actions->intern(trigger);
  return elapse(ph, f, r, std::move(actions), options);
}

}  // namespace unicon
