#include "testing/differential.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bisim/bisimulation.hpp"
#include "core/transform.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "ctmdp/simulate.hpp"
#include "io/tra.hpp"
#include "support/errors.hpp"
#include "support/lyapunov_bound.hpp"
#include "support/numerics.hpp"
#include "support/rng.hpp"
#include "testing/generate.hpp"
#include "testing/oracle.hpp"

namespace unicon::testing {

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::None: return "none";
    case Mutation::PerturbValue: return "perturb-value";
    case Mutation::SwapObjective: return "swap-objective";
    case Mutation::CoarsePoisson: return "coarse-poisson";
    case Mutation::StaleGoal: return "stale-goal";
  }
  return "?";
}

std::optional<Mutation> parse_mutation(const std::string& name) {
  for (const Mutation m : {Mutation::None, Mutation::PerturbValue, Mutation::SwapObjective,
                           Mutation::CoarsePoisson, Mutation::StaleGoal}) {
    if (name == mutation_name(m)) return m;
  }
  return std::nullopt;
}

namespace {

// Independent derive_seed streams per scenario, so adding draws to one
// generator never shifts another scenario's models for the same seed.
constexpr std::uint64_t kStreamImc = 1;
constexpr std::uint64_t kStreamComposed = 2;
constexpr std::uint64_t kStreamCtmdp = 3;
constexpr std::uint64_t kStreamCtmc = 4;
constexpr std::uint64_t kStreamZeno = 5;
constexpr std::uint64_t kStreamMc = 6;
constexpr std::uint64_t kStreamMcRetry = 7;
constexpr std::uint64_t kStreamBatch = 8;
constexpr std::uint64_t kStreamTruncation = 9;

/// Dense oracles are O(states^2); above this size only the structural and
/// variant checks run (documented in DESIGN.md — not a silent cap).
constexpr std::size_t kDenseOracleLimit = 600;

constexpr int kMaxShrinkLevel = 3;

struct Scaled {
  RandomImcConfig imc;
  RandomComposedConfig composed;
  RandomCtmdpConfig ctmdp;
  RandomCtmcConfig ctmc;
};

Scaled scaled_configs(int level) {
  Scaled s;
  s.imc.num_states = std::max<std::size_t>(3, std::size_t{14} >> level);
  s.imc.max_fanout = static_cast<unsigned>(std::max(1, 3 - level));
  s.imc.rate_spread = level == 0 ? 2.0 : 1.0;
  s.composed.ring_length = static_cast<unsigned>(std::max(2, 3 - level));
  s.composed.extra_actions = level == 0 ? 1u : 0u;
  s.composed.extra_states = 2;
  s.composed.max_phases = level >= 2 ? 1u : 2u;
  s.composed.max_states = 5000;
  s.ctmdp.num_states = std::max<std::size_t>(2, std::size_t{10} >> level);
  s.ctmdp.max_transitions_per_state = static_cast<unsigned>(std::max(1, 3 - level));
  s.ctmdp.max_entries = static_cast<unsigned>(std::max(1, 3 - level));
  s.ctmc.num_states = std::max<std::size_t>(2, std::size_t{10} >> level);
  s.ctmc.max_fanout = static_cast<unsigned>(std::max(1, 3 - level));
  return s;
}

struct CheckFailed {
  std::string message;
};

struct Ctx {
  const DifferentialConfig& config;
  std::uint64_t& checks;
  std::uint64_t seed = 0;
  int level = 0;

  void require(bool ok, const char* check, const std::string& detail) const {
    ++checks;
    if (!ok) throw CheckFailed{std::string(check) + ": " + detail};
  }
};

std::string num(double x) {
  std::ostringstream out;
  out.precision(12);
  out << x;
  return out.str();
}

double vector_diff(const std::vector<double>& a, const std::vector<double>& b) {
  return max_abs_diff(std::span<const double>(a), std::span<const double>(b));
}

/// The optimized solve under test, with the configured bug injected.
TimedReachabilityResult mutated_solve(const Ctmdp& model, BitVector goal, double t,
                                      TimedReachabilityOptions options, Mutation mutation) {
  if (mutation == Mutation::SwapObjective) {
    options.objective = options.objective == Objective::Maximize ? Objective::Minimize
                                                                 : Objective::Maximize;
  }
  if (mutation == Mutation::CoarsePoisson) options.epsilon = 1e-2;
  if (mutation == Mutation::StaleGoal) {
    for (std::size_t s = goal.size(); s-- > 0;) {
      if (goal[s]) {
        goal[s] = false;
        break;
      }
    }
  }
  TimedReachabilityResult result = timed_reachability(model, goal, t, options);
  if (mutation == Mutation::PerturbValue && !result.values.empty()) {
    double& v = result.values[model.initial()];
    v = v < 0.5 ? v + 1e-6 : v - 1e-6;
  }
  return result;
}

/// A stationary choice valid wherever a transition exists, seeded from an
/// extracted scheduler (goal states carry kNoTransition there).
std::vector<std::uint64_t> complete_choice(const Ctmdp& model,
                                           const std::vector<std::uint64_t>& partial) {
  std::vector<std::uint64_t> choice(model.num_states(), kNoTransition);
  for (StateId s = 0; s < model.num_states(); ++s) {
    const auto [first, last] = model.transition_range(s);
    if (first == last) continue;
    const std::uint64_t tr = s < partial.size() ? partial[s] : kNoTransition;
    choice[s] = (tr >= first && tr < last) ? tr : first;
  }
  return choice;
}

/// The full solver battery on one uniform CTMDP.  Returns the primary
/// (mutated) sup result so callers can compare pipeline variants against it.
TimedReachabilityResult solver_checks(const Ctx& ctx, const Ctmdp& model,
                                      const BitVector& goal_sup,
                                      const BitVector& goal_inf, bool with_mc) {
  const DifferentialConfig& config = ctx.config;
  const double t = config.time;
  TimedReachabilityOptions serial;
  serial.epsilon = config.epsilon;
  serial.threads = 1;
  serial.backend = config.backend;

  const TimedReachabilityResult sup = mutated_solve(model, goal_sup, t, serial, config.mutation);

  const bool dense_ok = model.num_states() <= kDenseOracleLimit;
  DenseModel dense;
  if (dense_ok) {
    dense = dense_from_ctmdp(model);
    const std::vector<double> ref =
        naive_timed_reachability(dense, goal_sup, t, config.epsilon, Objective::Maximize);
    const double diff = vector_diff(sup.values, ref);
    ctx.require(diff <= config.tolerance, "sup-vs-oracle", "max deviation " + num(diff));
  }

  TimedReachabilityOptions min_opts = serial;
  min_opts.objective = Objective::Minimize;
  const TimedReachabilityResult inf =
      mutated_solve(model, goal_inf, t, min_opts, config.mutation);
  if (dense_ok) {
    const std::vector<double> ref =
        naive_timed_reachability(dense, goal_inf, t, config.epsilon, Objective::Minimize);
    const double diff = vector_diff(inf.values, ref);
    ctx.require(diff <= config.tolerance, "inf-vs-oracle", "max deviation " + num(diff));
  }
  // goal_inf is a subset of goal_sup (universal vs existential transfer, or
  // the identical mask), so inf(goal_inf) <= sup(goal_sup) pointwise.
  if (config.mutation == Mutation::None) {
    bool ordered = true;
    double worst = 0.0;
    for (std::size_t s = 0; s < sup.values.size(); ++s) {
      const double excess = inf.values[s] - sup.values[s];
      if (excess > config.tolerance) {
        ordered = false;
        worst = std::max(worst, excess);
      }
    }
    ctx.require(ordered, "inf<=sup", "inf exceeds sup by " + num(worst));
  }

  // Serial (mutated) vs. parallel (pristine) must agree bitwise — a check
  // that has teeth even when the model is too large for the dense oracle.
  TimedReachabilityOptions parallel = serial;
  parallel.threads = 4;
  const TimedReachabilityResult sup_par = timed_reachability(model, goal_sup, t, parallel);
  ctx.require(sup.values == sup_par.values, "serial-vs-parallel",
              "values differ by " + num(vector_diff(sup.values, sup_par.values)));

  // Early termination within tolerance of the faithful iteration.
  TimedReachabilityOptions early = serial;
  early.early_termination = true;
  early.early_termination_delta = 1e-12;
  const TimedReachabilityResult sup_early = timed_reachability(model, goal_sup, t, early);
  {
    const double diff = vector_diff(sup.values, sup_early.values);
    ctx.require(config.mutation != Mutation::None || diff <= config.tolerance,
                "early-termination", "max deviation " + num(diff));
  }

  // Step-bounded special case vs. naive oracle, serial vs. parallel.
  const std::uint64_t steps = std::min<std::uint64_t>(sup.iterations_planned, 25);
  const std::vector<double> sb =
      step_bounded_reachability(model, goal_sup, steps, Objective::Maximize, 1);
  if (dense_ok) {
    const std::vector<double> ref = naive_step_bounded(dense, goal_sup, steps);
    const double diff = vector_diff(sb, ref);
    ctx.require(diff <= config.tolerance, "step-bounded-vs-oracle", "max deviation " + num(diff));
  }
  const std::vector<double> sb_par =
      step_bounded_reachability(model, goal_sup, steps, Objective::Maximize, 3);
  ctx.require(sb == sb_par, "step-bounded-serial-vs-parallel",
              "values differ by " + num(vector_diff(sb, sb_par)));

  if (with_mc) {
    // Extracted scheduler: its stationary evaluation is a lower bound on
    // sup, matches the induced CTMC, and is reproduced by simulation.
    TimedReachabilityOptions sched_opts = serial;
    sched_opts.extract_scheduler = true;
    const TimedReachabilityResult sched = timed_reachability(model, goal_sup, t, sched_opts);
    const std::vector<std::uint64_t> choice = complete_choice(model, sched.initial_decision);
    const TimedReachabilityResult eval = evaluate_scheduler(model, goal_sup, t, choice, serial);
    const StateId init = model.initial();
    ctx.require(eval.values[init] <= sched.values[init] + config.tolerance, "scheduler<=sup",
                num(eval.values[init]) + " vs sup " + num(sched.values[init]));

    const Ctmc chain = induced_ctmc(model, choice);
    TransientOptions transient;
    transient.epsilon = config.epsilon;
    transient.threads = 1;
    transient.backend = config.backend;
    const TransientResult chain_result = timed_reachability(chain, goal_sup, t, transient);
    const double chain_diff = vector_diff(chain_result.probabilities, eval.values);
    ctx.require(chain_diff <= config.tolerance, "induced-ctmc",
                "max deviation " + num(chain_diff));

    const double analytic = eval.values[init];
    auto inside_ci = [&](const SimulationResult& sim) {
      const double half =
          config.mc_z * std::sqrt(analytic * (1.0 - analytic) /
                                  static_cast<double>(sim.num_runs)) +
          1.0 / static_cast<double>(sim.num_runs);
      return std::fabs(sim.estimate - analytic) <= half;
    };
    SimulationOptions sim_opts;
    sim_opts.num_runs = config.mc_runs;
    sim_opts.seed = derive_seed(ctx.seed, kStreamMc);
    sim_opts.threads = 2;
    SimulationResult sim = simulate_reachability(model, goal_sup, t, choice, sim_opts);
    if (!inside_ci(sim)) {
      // One in ~10^2 honest estimates lands outside a 99% CI; retry with 4x
      // the runs before declaring a failure.
      sim_opts.num_runs = 4 * config.mc_runs;
      sim_opts.seed = derive_seed(ctx.seed, kStreamMcRetry);
      sim = simulate_reachability(model, goal_sup, t, choice, sim_opts);
    }
    ctx.require(inside_ci(sim), "mc-ci",
                "estimate " + num(sim.estimate) + " vs analytic " + num(analytic) + " (" +
                    std::to_string(sim.num_runs) + " runs)");
  }

  return sup;
}

/// Transforms a pipeline variant of the original uIMC and checks that its
/// initial sup value agrees with the primary's.
void variant_check(const Ctx& ctx, const char* name, const Imc& variant,
                   const BitVector& goal, double primary_value) {
  const TransformResult tr = transform_to_ctmdp(variant, &goal);
  TimedReachabilityOptions options;
  options.epsilon = ctx.config.epsilon;
  options.threads = 1;
  options.backend = ctx.config.backend;
  const TimedReachabilityResult result =
      timed_reachability(tr.ctmdp, tr.goal, ctx.config.time, options);
  const double value = result.values[tr.ctmdp.initial()];
  ctx.require(std::fabs(value - primary_value) <= ctx.config.tolerance, name,
              num(value) + " vs primary " + num(primary_value));
}

void bisim_checks(const Ctx& ctx, const Imc& m, const BitVector& goal,
                  double primary_value) {
  // Label classes preserve the goal mask through minimization.
  std::vector<std::uint32_t> labels(m.num_states(), 0);
  for (StateId s = 0; s < m.num_states(); ++s) labels[s] = goal[s] ? 1u : 0u;

  const Partition strong = strong_bisimulation(m, &labels);
  const Imc strong_q = quotient(m, strong, QuotientStyle::Strong);
  BitVector strong_goal(strong.num_blocks, false);
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (goal[s]) strong_goal[strong.block_of[s]] = true;
  }
  variant_check(ctx, "strong-bisim-minimized", strong_q, strong_goal, primary_value);

  const Partition branching = branching_bisimulation(m, &labels);
  const Imc branching_q = quotient(m, branching, QuotientStyle::Branching);
  BitVector branching_goal(branching.num_blocks, false);
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (goal[s]) branching_goal[branching.block_of[s]] = true;
  }
  variant_check(ctx, "branching-bisim-minimized", branching_q, branching_goal, primary_value);
}

// --- Scenarios ----------------------------------------------------------

void scenario_imc(const Ctx& ctx, const Scaled& cfg) {
  Rng rng(derive_seed(ctx.seed, kStreamImc));
  const Imc m = random_uniform_imc(rng, cfg.imc);
  const BitVector goal = random_goal(rng, m.num_states());

  const UniformityAudit audit = audit_uniformity(m, UniformityView::Closed, 1e-9);
  ctx.require(audit.uniform, "uniformity-audit",
              "state " + std::to_string(audit.worst_state) + " deviates by " +
                  num(audit.max_deviation));
  const auto lib_rate = m.uniform_rate(UniformityView::Closed, 1e-6);
  ctx.require(lib_rate.has_value(), "uniform-rate", "library rejects an audited-uniform model");
  ctx.require(std::fabs(*lib_rate - audit.rate) <= 1e-6, "uniform-rate",
              "library " + num(*lib_rate) + " vs audit " + num(audit.rate));

  const TransformResult tr = transform_to_ctmdp(m, &goal);
  if (tr.ctmdp.num_states() <= kDenseOracleLimit) {
    const auto mismatch = check_transform(m, goal, tr);
    ctx.require(!mismatch, "transform-oracle", mismatch.value_or(""));
  }

  const TimedReachabilityResult sup =
      solver_checks(ctx, tr.ctmdp, tr.goal, tr.goal_universal, /*with_mc=*/true);
  const double primary = sup.values[tr.ctmdp.initial()];

  // Hiding relabels words but not the urgent dynamics of a closed model.
  variant_check(ctx, "hide-all-invariance", m.hide_all(), goal, primary);
  bisim_checks(ctx, m, goal, primary);
}

void scenario_composed(const Ctx& ctx, const Scaled& cfg) {
  Rng rng(derive_seed(ctx.seed, kStreamComposed));
  const ComposedModel cm = random_composed_uimc(rng, cfg.composed);

  // Uniformity must hold *by construction* (Lemmas 1-3), at the rate the
  // construction promised.
  const UniformityAudit audit = audit_uniformity(cm.system, UniformityView::Closed, 1e-6);
  ctx.require(audit.uniform, "composed-uniformity",
              "state " + std::to_string(audit.worst_state) + " deviates by " +
                  num(audit.max_deviation));
  if (audit.rate > 0.0) {
    ctx.require(std::fabs(audit.rate - cm.expected_rate) <= 1e-6, "composed-rate",
                "audit " + num(audit.rate) + " vs constructed " + num(cm.expected_rate));
  }

  const TransformResult tr = transform_to_ctmdp(cm.system, &cm.goal);
  if (tr.ctmdp.num_states() <= kDenseOracleLimit) {
    const auto mismatch = check_transform(cm.system, cm.goal, tr);
    ctx.require(!mismatch, "transform-oracle", mismatch.value_or(""));
  }

  const TimedReachabilityResult sup =
      solver_checks(ctx, tr.ctmdp, tr.goal, tr.goal_universal, /*with_mc=*/false);
  bisim_checks(ctx, cm.system, cm.goal, sup.values[tr.ctmdp.initial()]);
}

void scenario_ctmdp(const Ctx& ctx, const Scaled& cfg) {
  Rng rng(derive_seed(ctx.seed, kStreamCtmdp));
  const Ctmdp model = random_uniform_ctmdp(rng, cfg.ctmdp);
  const BitVector goal = random_goal(rng, model.num_states());
  solver_checks(ctx, model, goal, goal, /*with_mc=*/true);
}

void scenario_ctmc(const Ctx& ctx, const Scaled& cfg) {
  Rng rng(derive_seed(ctx.seed, kStreamCtmc));
  const Ctmc chain = random_ctmc(rng, cfg.ctmc);
  const BitVector goal = random_goal(rng, chain.num_states());
  const double t = ctx.config.time;

  TransientOptions serial;
  serial.epsilon = ctx.config.epsilon;
  serial.threads = 1;
  serial.backend = ctx.config.backend;
  const TransientResult direct = timed_reachability(chain, goal, t, serial);

  // Jensen uniformization is transparent to transient behaviour.
  const Ctmc uniform = chain.uniformize();
  const TransientResult via_uniform = timed_reachability(uniform, goal, t, serial);
  {
    const double diff = vector_diff(direct.probabilities, via_uniform.probabilities);
    ctx.require(diff <= ctx.config.tolerance, "uniformize-invariance",
                "max deviation " + num(diff));
  }

  TransientOptions parallel = serial;
  parallel.threads = 4;
  const TransientResult par = timed_reachability(chain, goal, t, parallel);
  ctx.require(direct.probabilities == par.probabilities, "ctmc-serial-vs-parallel",
              "values differ by " + num(vector_diff(direct.probabilities, par.probabilities)));

  // Algorithm 1 on the embedded chain degenerates to the CTMC solution.
  const Ctmdp embedded = ctmdp_from_ctmc(uniform);
  TimedReachabilityOptions solver;
  solver.epsilon = ctx.config.epsilon;
  solver.threads = 1;
  solver.backend = ctx.config.backend;
  const TimedReachabilityResult alg1 = timed_reachability(embedded, goal, t, solver);
  {
    const double diff = vector_diff(alg1.values, direct.probabilities);
    ctx.require(diff <= ctx.config.tolerance, "ctmc-vs-alg1", "max deviation " + num(diff));
  }
  if (embedded.num_states() <= kDenseOracleLimit) {
    const std::vector<double> ref = naive_timed_reachability(
        dense_from_ctmdp(embedded), goal, t, ctx.config.epsilon, Objective::Maximize);
    const double diff = vector_diff(alg1.values, ref);
    ctx.require(diff <= ctx.config.tolerance, "ctmc-vs-dense-oracle",
                "max deviation " + num(diff));
  }
}

void scenario_zeno(const Ctx& ctx, const Scaled& cfg) {
  Rng rng(derive_seed(ctx.seed, kStreamZeno));
  RandomImcConfig zeno_cfg = cfg.imc;
  zeno_cfg.tau_cycle_density = 0.4;
  const Imc m = random_uniform_imc(rng, zeno_cfg);
  const BitVector goal = random_goal(rng, m.num_states());

  // 0 = accepted, 1 = rejected.  The *first* rejection reason may depend on
  // exploration order, so only acceptance must agree.
  auto classify_library = [&]() -> int {
    try {
      (void)transform_to_ctmdp(m, &goal);
      return 0;
    } catch (const ZenoError&) {
      return 1;
    } catch (const ModelError&) {
      return 1;
    }
  };
  auto classify_oracle = [&]() -> int {
    try {
      (void)bruteforce_transform(m, goal);
      return 0;
    } catch (const ZenoError&) {
      return 1;
    } catch (const ModelError&) {
      return 1;
    }
  };
  const int lib = classify_library();
  const int oracle = classify_oracle();
  ctx.require(lib == oracle, "zeno-agreement",
              std::string("library ") + (lib ? "rejects" : "accepts") + ", oracle " +
                  (oracle ? "rejects" : "accepts"));
  if (lib == 0) {
    const TransformResult tr = transform_to_ctmdp(m, &goal);
    if (tr.ctmdp.num_states() <= kDenseOracleLimit) {
      const auto mismatch = check_transform(m, goal, tr);
      ctx.require(!mismatch, "transform-oracle", mismatch.value_or(""));
    }
  }
}

// --- Batch mode ---------------------------------------------------------

/// One generated multi-horizon instance.  Factored out so the scenario and
/// write_artifacts consume the identical rng draw sequence and can never
/// drift apart.
struct BatchInstance {
  Ctmdp model;
  BitVector goal;
  std::vector<double> times;
  Ctmc chain;
  BitVector chain_goal;
  std::vector<double> chain_times;
};

/// 2..6 bounds, deliberately hostile to horizon bookkeeping: unsorted,
/// with occasional zeros and exact duplicates.
std::vector<double> random_times(Rng& rng) {
  const std::size_t count = 2 + rng.next_below(5);
  std::vector<double> times;
  times.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t pick = rng.next_below(8);
    if (pick == 0) {
      times.push_back(0.0);
    } else if (pick == 1 && !times.empty()) {
      times.push_back(times[rng.next_below(times.size())]);
    } else {
      times.push_back(0.05 + 3.0 * rng.next_double());
    }
  }
  return times;
}

BatchInstance make_batch_instance(std::uint64_t seed, const Scaled& cfg) {
  Rng rng(derive_seed(seed, kStreamBatch));
  BatchInstance instance;
  instance.model = random_uniform_ctmdp(rng, cfg.ctmdp);
  instance.goal = random_goal(rng, instance.model.num_states());
  instance.times = random_times(rng);
  instance.chain = random_ctmc(rng, cfg.ctmc);
  instance.chain_goal = random_goal(rng, instance.chain.num_states());
  instance.chain_times = random_times(rng);
  return instance;
}

/// The batch solve under test with the configured bug injected — the same
/// injection points as mutated_solve, so --self-check has teeth in batch
/// mode too.
std::vector<TimedReachabilityResult> mutated_batch_solve(const Ctmdp& model, BitVector goal,
                                                         const std::vector<double>& times,
                                                         TimedReachabilityOptions options,
                                                         Mutation mutation) {
  if (mutation == Mutation::SwapObjective) {
    options.objective = options.objective == Objective::Maximize ? Objective::Minimize
                                                                 : Objective::Maximize;
  }
  if (mutation == Mutation::CoarsePoisson) options.epsilon = 1e-2;
  if (mutation == Mutation::StaleGoal) {
    for (std::size_t s = goal.size(); s-- > 0;) {
      if (goal[s]) {
        goal[s] = false;
        break;
      }
    }
  }
  std::vector<TimedReachabilityResult> results =
      timed_reachability_batch(model, goal, times, options);
  if (mutation == Mutation::PerturbValue && !results.empty() &&
      !results.front().values.empty()) {
    double& v = results.front().values[model.initial()];
    v = v < 0.5 ? v + 1e-6 : v - 1e-6;
  }
  return results;
}

void scenario_batch(const Ctx& ctx, const Scaled& cfg) {
  const BatchInstance instance = make_batch_instance(ctx.seed, cfg);
  const DifferentialConfig& config = ctx.config;

  TimedReachabilityOptions options;
  options.epsilon = config.epsilon;
  options.threads = 1;
  options.backend = config.backend;

  const bool dense_ok = instance.model.num_states() <= kDenseOracleLimit;
  DenseModel dense;
  if (dense_ok) dense = dense_from_ctmdp(instance.model);

  for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
    options.objective = objective;
    const char* tag = objective == Objective::Maximize ? "sup" : "inf";
    const std::vector<TimedReachabilityResult> batch = mutated_batch_solve(
        instance.model, instance.goal, instance.times, options, config.mutation);
    ctx.require(batch.size() == instance.times.size(), "batch-size",
                std::to_string(batch.size()) + " results for " +
                    std::to_string(instance.times.size()) + " bounds");
    for (std::size_t j = 0; j < instance.times.size(); ++j) {
      const double t = instance.times[j];
      // Contract: each horizon is bit-identical to its independent
      // single-t solve — values, iteration counts and residual bound.
      const TimedReachabilityResult single =
          timed_reachability(instance.model, instance.goal, t, options);
      ctx.require(batch[j].values == single.values,
                  (std::string("batch-bitwise-") + tag).c_str(),
                  "t=" + num(t) + " values differ by " +
                      num(vector_diff(batch[j].values, single.values)));
      ctx.require(batch[j].iterations_planned == single.iterations_planned &&
                      batch[j].iterations_executed == single.iterations_executed,
                  (std::string("batch-iterations-") + tag).c_str(),
                  "t=" + num(t) + " batch " + std::to_string(batch[j].iterations_executed) +
                      "/" + std::to_string(batch[j].iterations_planned) + " vs single " +
                      std::to_string(single.iterations_executed) + "/" +
                      std::to_string(single.iterations_planned));
      if (dense_ok) {
        const std::vector<double> ref =
            naive_timed_reachability(dense, instance.goal, t, config.epsilon, objective);
        const double diff = vector_diff(batch[j].values, ref);
        ctx.require(diff <= config.tolerance, (std::string("batch-vs-oracle-") + tag).c_str(),
                    "t=" + num(t) + " max deviation " + num(diff));
      }
    }
  }

  TransientOptions transient;
  transient.epsilon = config.epsilon;
  transient.threads = 1;
  transient.backend = config.backend;
  const std::vector<TransientResult> chain_batch = timed_reachability_batch(
      instance.chain, instance.chain_goal, instance.chain_times, transient);
  ctx.require(chain_batch.size() == instance.chain_times.size(), "ctmc-batch-size",
              std::to_string(chain_batch.size()) + " results for " +
                  std::to_string(instance.chain_times.size()) + " bounds");
  for (std::size_t j = 0; j < instance.chain_times.size(); ++j) {
    const double t = instance.chain_times[j];
    const TransientResult single =
        timed_reachability(instance.chain, instance.chain_goal, t, transient);
    ctx.require(chain_batch[j].probabilities == single.probabilities, "ctmc-batch-bitwise",
                "t=" + num(t) + " values differ by " +
                    num(vector_diff(chain_batch[j].probabilities, single.probabilities)));
    const Ctmdp embedded = ctmdp_from_ctmc(instance.chain.uniformize());
    if (embedded.num_states() <= kDenseOracleLimit) {
      const std::vector<double> ref =
          naive_timed_reachability(dense_from_ctmdp(embedded), instance.chain_goal, t,
                                   config.epsilon, Objective::Maximize);
      const double diff = vector_diff(chain_batch[j].probabilities, ref);
      ctx.require(diff <= config.tolerance, "ctmc-batch-vs-oracle",
                  "t=" + num(t) + " max deviation " + num(diff));
    }
  }
}

// --- Truncation mode ----------------------------------------------------

/// One generated truncation-differential instance.  Factored out so the
/// scenario and write_artifacts consume the identical rng draw sequence.
struct TruncationInstance {
  Ctmdp model;
  BitVector goal;
  Ctmc chain;
  BitVector chain_goal;
};

TruncationInstance make_truncation_instance(std::uint64_t seed, const Scaled& cfg) {
  Rng rng(derive_seed(seed, kStreamTruncation));
  TruncationInstance instance;
  instance.model = random_uniform_ctmdp(rng, cfg.ctmdp);
  instance.goal = random_goal(rng, instance.model.num_states());
  instance.chain = random_ctmc(rng, cfg.ctmc);
  instance.chain_goal = random_goal(rng, instance.chain.num_states());
  return instance;
}

/// lambda * t for the long horizon: far past kLyapunovAutoEngageLeft, so
/// both the explicit and the auto provider run the Lyapunov certificate.
constexpr double kLongHorizonMass = 1500.0;

constexpr Truncation kTruncationModes[] = {Truncation::FoxGlynn, Truncation::Lyapunov,
                                           Truncation::Auto};

/// The step at which the CTMC transient fold fires for bound @p t under
/// @p mode, or 0 when it never does, replayed from an independent survival
/// series: every state keeps its row (goal rows absorbing), the serial
/// gather, and every probe step of the horizon's budget, with no gate.  The
/// solver's k_lyapunov must equal it, so a gate that skips a fold that would
/// have fired is caught.
std::uint64_t reference_fold_step(const Ctmc& chain, const BitVector& goal, double t,
                                  Truncation mode, double epsilon) {
  const std::size_t n = chain.num_states();
  double rate = 0.0;
  for (StateId s = 0; s < n; ++s) {
    if (!goal[s]) rate = std::max(rate, chain.exit_rate(s));
  }
  if (rate == 0.0) rate = 1.0;
  const TruncationPlan plan = plan_truncation(mode, rate * t, epsilon);
  if (!plan.engaged()) return 0;
  std::vector<double> u(n);
  std::vector<double> next(n);
  for (std::size_t s = 0; s < n; ++s) u[s] = goal[s] ? 0.0 : 1.0;
  LyapunovSeries series(epsilon / 2.0);
  const std::uint64_t right = plan.window.right();
  for (std::uint64_t a = 1; a < right && LyapunovSeries::within_budget(a, right - a); ++a) {
    for (StateId s = 0; s < n; ++s) {
      if (goal[s]) continue;  // absorbing: survival stays 0 in both buffers
      double acc = std::max(0.0, 1.0 - chain.exit_rate(s) / rate) * u[s];
      for (const SparseEntry& e : chain.out(s)) acc += (e.value / rate) * u[e.col];
      next[s] = acc;
    }
    u.swap(next);
    double ub = 0.0;
    for (const double x : u) {
      if (!(x <= ub)) ub = x;
    }
    series.record(ub);
    if (series.should_disengage(series.size())) return 0;
    if (plan.window.tail_mass(a) * ub <= epsilon / 2.0) return a;
  }
  return 0;
}

void scenario_truncation(const Ctx& ctx, const Scaled& cfg) {
  const TruncationInstance instance = make_truncation_instance(ctx.seed, cfg);
  const DifferentialConfig& config = ctx.config;

  // CTMDP: every provider x locking, both objectives, short and long bound.
  const double ctmdp_long = kLongHorizonMass / cfg.ctmdp.uniform_rate;
  const bool dense_ok = instance.model.num_states() <= kDenseOracleLimit;
  DenseModel dense;
  if (dense_ok) dense = dense_from_ctmdp(instance.model);
  for (const double t : {config.time, ctmdp_long}) {
    const bool long_bound = t == ctmdp_long;
    for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
      TimedReachabilityOptions base;
      base.epsilon = config.epsilon;
      base.objective = objective;
      base.threads = 1;
      base.backend = config.backend;
      base.locking = false;
      base.truncation = Truncation::FoxGlynn;
      const TimedReachabilityResult ref =
          mutated_solve(instance.model, instance.goal, t, base, config.mutation);
      std::vector<double> oracle;
      if (dense_ok) {
        oracle = naive_timed_reachability(dense, instance.goal, t, config.epsilon, objective);
      }
      for (const Truncation mode : kTruncationModes) {
        TimedReachabilityOptions options = base;
        options.truncation = mode;
        const TimedReachabilityResult off =
            mutated_solve(instance.model, instance.goal, t, options, config.mutation);
        options.locking = true;
        const TimedReachabilityResult on =
            mutated_solve(instance.model, instance.goal, t, options, config.mutation);
        const std::string tag = std::string(truncation_name(mode)) + "/" +
                                (objective == Objective::Maximize ? "sup" : "inf") +
                                " t=" + num(t);
        // Locking is observably invisible: bitwise-equal values.
        ctx.require(off.values == on.values, "truncation-locking-bitwise",
                    tag + " values differ by " + num(vector_diff(off.values, on.values)));
        ctx.require(on.iterations_executed <= off.iterations_executed, "truncation-locking-iters",
                    tag + " locking executed more sweeps (" +
                        std::to_string(on.iterations_executed) + " vs " +
                        std::to_string(off.iterations_executed) + ")");
        if (mode == Truncation::FoxGlynn) {
          ctx.require(off.truncation == Truncation::FoxGlynn, "truncation-resolve",
                      tag + " fox-glynn request resolved to lyapunov");
        }
        if (mode == Truncation::Lyapunov && long_bound) {
          ctx.require(off.truncation == Truncation::Lyapunov, "truncation-resolve",
                      tag + " certificate did not engage at lambda*t=" + num(kLongHorizonMass));
        }
        const double mode_diff = vector_diff(off.values, ref.values);
        ctx.require(mode_diff <= config.tolerance, "truncation-mode-agreement",
                    tag + " max deviation " + num(mode_diff) + " from fox-glynn");
        if (dense_ok) {
          const double diff = vector_diff(off.values, oracle);
          ctx.require(diff <= config.tolerance, "truncation-vs-oracle",
                      tag + " max deviation " + num(diff));
          if (config.mutation == Mutation::None) {
            ctx.require(diff <= off.residual_bound + config.tolerance,
                        "truncation-residual-sound",
                        tag + " deviation " + num(diff) + " exceeds residual bound " +
                            num(off.residual_bound));
          }
        }
      }
    }
  }

  // CTMC: same grid on the transient solver (no objective, no mutation —
  // the CTMDP half above carries the self-check teeth, as in batch mode).
  TransientOptions tbase;
  tbase.epsilon = config.epsilon;
  tbase.threads = 1;
  tbase.backend = config.backend;
  tbase.locking = false;
  tbase.truncation = Truncation::FoxGlynn;
  const TransientResult probe =
      timed_reachability(instance.chain, instance.chain_goal, config.time, tbase);
  const double chain_long =
      probe.uniform_rate > 0.0 ? kLongHorizonMass / probe.uniform_rate : config.time;
  const Ctmdp embedded = ctmdp_from_ctmc(instance.chain.uniformize());
  for (const double t : {config.time, chain_long}) {
    const TransientResult ref = timed_reachability(instance.chain, instance.chain_goal, t, tbase);
    std::vector<double> oracle;
    const bool chain_dense_ok = embedded.num_states() <= kDenseOracleLimit;
    if (chain_dense_ok) {
      oracle = naive_timed_reachability(dense_from_ctmdp(embedded), instance.chain_goal, t,
                                        config.epsilon, Objective::Maximize);
    }
    for (const Truncation mode : kTruncationModes) {
      TransientOptions options = tbase;
      options.truncation = mode;
      const TransientResult off = timed_reachability(instance.chain, instance.chain_goal, t,
                                                     options);
      options.locking = true;
      const TransientResult on = timed_reachability(instance.chain, instance.chain_goal, t,
                                                    options);
      const std::string tag = std::string("ctmc ") + truncation_name(mode) + " t=" + num(t);
      ctx.require(off.probabilities == on.probabilities, "truncation-ctmc-locking-bitwise",
                  tag + " values differ by " +
                      num(vector_diff(off.probabilities, on.probabilities)));
      const std::uint64_t fold_step = reference_fold_step(
          instance.chain, instance.chain_goal, t, mode, config.epsilon);
      ctx.require(off.k_lyapunov == fold_step && on.k_lyapunov == fold_step,
                  "truncation-ctmc-fold-step",
                  tag + " folded at " + std::to_string(off.k_lyapunov) + "/" +
                      std::to_string(on.k_lyapunov) + " (locking off/on), the ungated " +
                      "survival series folds at " + std::to_string(fold_step));
      if (mode == Truncation::FoxGlynn) {
        ctx.require(off.truncation == Truncation::FoxGlynn, "truncation-ctmc-resolve",
                    tag + " fox-glynn request resolved to lyapunov");
      }
      const double mode_diff = vector_diff(off.probabilities, ref.probabilities);
      ctx.require(mode_diff <= config.tolerance, "truncation-ctmc-mode-agreement",
                  tag + " max deviation " + num(mode_diff) + " from fox-glynn");
      if (chain_dense_ok) {
        const double diff = vector_diff(off.probabilities, oracle);
        ctx.require(diff <= config.tolerance, "truncation-ctmc-vs-oracle",
                    tag + " max deviation " + num(diff));
      }
    }
  }
}

struct Scenario {
  const char* name;
  void (*run)(const Ctx&, const Scaled&);
};

constexpr Scenario kScenarios[] = {
    {"imc", scenario_imc},       {"composed", scenario_composed}, {"ctmdp", scenario_ctmdp},
    {"ctmc", scenario_ctmc},     {"zeno", scenario_zeno},
};

std::vector<std::string> write_artifacts(const Failure& failure,
                                         const DifferentialConfig& config) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  fs::create_directories(config.artifact_dir);
  const Scaled cfg = scaled_configs(failure.level);
  const std::string stem = config.artifact_dir + "/seed-" + std::to_string(failure.seed) + "-" +
                           failure.scenario;
  auto emit = [&](const std::string& path, auto&& writer) {
    std::ofstream out(path);
    writer(out);
    files.push_back(path);
  };

  if (failure.scenario == "imc" || failure.scenario == "zeno" ||
      failure.scenario == "composed") {
    Rng rng(derive_seed(failure.seed, failure.scenario == "composed" ? kStreamComposed
                        : failure.scenario == "zeno"                 ? kStreamZeno
                                                                     : kStreamImc));
    Imc m;
    BitVector goal;
    if (failure.scenario == "composed") {
      ComposedModel cm = random_composed_uimc(rng, cfg.composed);
      m = std::move(cm.system);
      goal = std::move(cm.goal);
    } else {
      RandomImcConfig imc_cfg = cfg.imc;
      if (failure.scenario == "zeno") imc_cfg.tau_cycle_density = 0.4;
      m = random_uniform_imc(rng, imc_cfg);
      goal = random_goal(rng, m.num_states());
    }
    emit(stem + ".imc", [&](std::ostream& out) { io::write_imc(out, m); });
    emit(stem + ".lab", [&](std::ostream& out) { io::write_goal(out, goal); });
  } else if (failure.scenario == "ctmdp") {
    Rng rng(derive_seed(failure.seed, kStreamCtmdp));
    const Ctmdp model = random_uniform_ctmdp(rng, cfg.ctmdp);
    const BitVector goal = random_goal(rng, model.num_states());
    emit(stem + ".ctmdp", [&](std::ostream& out) { io::write_ctmdp(out, model); });
    emit(stem + ".lab", [&](std::ostream& out) { io::write_goal(out, goal); });
  } else if (failure.scenario == "ctmc") {
    Rng rng(derive_seed(failure.seed, kStreamCtmc));
    const Ctmc chain = random_ctmc(rng, cfg.ctmc);
    const BitVector goal = random_goal(rng, chain.num_states());
    emit(stem + ".tra", [&](std::ostream& out) { io::write_ctmc(out, chain); });
    emit(stem + ".lab", [&](std::ostream& out) { io::write_goal(out, goal); });
  } else if (failure.scenario == "batch") {
    const BatchInstance instance = make_batch_instance(failure.seed, cfg);
    emit(stem + ".ctmdp", [&](std::ostream& out) { io::write_ctmdp(out, instance.model); });
    emit(stem + ".lab", [&](std::ostream& out) { io::write_goal(out, instance.goal); });
    emit(stem + ".tra", [&](std::ostream& out) { io::write_ctmc(out, instance.chain); });
    emit(stem + ".tra.lab",
         [&](std::ostream& out) { io::write_goal(out, instance.chain_goal); });
  } else if (failure.scenario == "truncation") {
    const TruncationInstance instance = make_truncation_instance(failure.seed, cfg);
    emit(stem + ".ctmdp", [&](std::ostream& out) { io::write_ctmdp(out, instance.model); });
    emit(stem + ".lab", [&](std::ostream& out) { io::write_goal(out, instance.goal); });
    emit(stem + ".tra", [&](std::ostream& out) { io::write_ctmc(out, instance.chain); });
    emit(stem + ".tra.lab",
         [&](std::ostream& out) { io::write_goal(out, instance.chain_goal); });
  }

  emit(stem + ".txt", [&](std::ostream& out) {
    out << "seed: " << failure.seed << "\n"
        << "scenario: " << failure.scenario << "\n"
        << "shrink level: " << failure.level << "\n"
        << "failure: " << failure.message << "\n"
        << "replay: unicon_fuzz "
        << (failure.scenario == "batch"        ? "--batch "
            : failure.scenario == "truncation" ? "--truncation "
                                               : "")
        << "--seed " << failure.seed << "\n";
    if (failure.scenario == "batch") {
      const BatchInstance instance = make_batch_instance(failure.seed, cfg);
      out << "ctmdp times:";
      for (const double t : instance.times) out << " " << num(t);
      out << "\nctmc times:";
      for (const double t : instance.chain_times) out << " " << num(t);
      out << "\n";
    }
  });
  return files;
}

}  // namespace

std::optional<Failure> run_seed(std::uint64_t seed, const DifferentialConfig& config, int level,
                                std::uint64_t& checks_run) {
  const Scaled cfg = scaled_configs(level);
  const Ctx ctx{config, checks_run, seed, level};
  const auto run_one = [&](const Scenario& scenario) -> std::optional<Failure> {
    try {
      scenario.run(ctx, cfg);
    } catch (const CheckFailed& failed) {
      return Failure{seed, scenario.name, failed.message, level, {}};
    } catch (const Error& error) {
      return Failure{seed, scenario.name, std::string("unexpected error: ") + error.what(),
                     level, {}};
    }
    return std::nullopt;
  };
  if (config.truncation) return run_one(Scenario{"truncation", scenario_truncation});
  if (config.batch) return run_one(Scenario{"batch", scenario_batch});
  for (const Scenario& scenario : kScenarios) {
    if (std::optional<Failure> failure = run_one(scenario)) return failure;
  }
  return std::nullopt;
}

DifferentialReport run_differential(const DifferentialConfig& config, const LogFn& log) {
  DifferentialReport report;
  for (std::uint64_t i = 0; i < config.num_seeds; ++i) {
    const std::uint64_t seed = config.base_seed + i;
    std::optional<Failure> failure = run_seed(seed, config, 0, report.checks_run);
    ++report.seeds_run;
    if (!failure) {
      if (log && (i + 1) % 50 == 0) {
        log(std::to_string(i + 1) + "/" + std::to_string(config.num_seeds) + " seeds, " +
            std::to_string(report.checks_run) + " checks, " +
            std::to_string(report.failures.size()) + " failures");
      }
      continue;
    }
    if (config.shrink) {
      // Re-run the same seed on ever smaller generator configs; keep the
      // deepest level that still fails the same scenario.
      for (int level = 1; level <= kMaxShrinkLevel; ++level) {
        std::uint64_t scratch = 0;
        std::optional<Failure> smaller = run_seed(seed, config, level, scratch);
        if (!smaller || smaller->scenario != failure->scenario) break;
        failure = std::move(smaller);
      }
    }
    if (!config.artifact_dir.empty()) failure->artifacts = write_artifacts(*failure, config);
    if (log) {
      log("seed " + std::to_string(seed) + " FAILED [" + failure->scenario +
          ", level " + std::to_string(failure->level) + "] " + failure->message);
    }
    report.failures.push_back(std::move(*failure));
  }
  return report;
}

}  // namespace unicon::testing
