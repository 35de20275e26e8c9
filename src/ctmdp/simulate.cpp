#include "ctmdp/simulate.hpp"

#include <cmath>
#include <optional>
#include <string>

#include "support/errors.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace unicon {

namespace {

/// One trajectory under the stationary scheduler; true iff the goal set is
/// reached within the time bound.
bool simulate_run(const Ctmdp& model, const BitVector& goal, double t,
                  const std::vector<std::uint64_t>& choice, std::uint64_t max_jumps, Rng& rng,
                  std::vector<double>& weights) {
  StateId s = model.initial();
  double clock = 0.0;
  for (std::uint64_t jump = 0; jump < max_jumps; ++jump) {
    if (goal[s]) return true;
    const auto [first, last] = model.transition_range(s);
    if (first == last) return false;  // absorbing non-goal state
    const std::uint64_t tr = choice[s];
    if (tr < first || tr >= last) {
      throw ModelError("simulate_reachability: scheduler choice out of range");
    }
    clock += rng.next_exponential(model.exit_rate(tr));
    if (clock > t) return false;
    const auto rates = model.rates(tr);
    weights.resize(rates.size());
    for (std::size_t j = 0; j < rates.size(); ++j) weights[j] = rates[j].value;
    s = rates[rng.next_discrete(weights)].col;
  }
  return false;
}

}  // namespace

SimulationResult simulate_reachability(const Ctmdp& model, const BitVector& goal,
                                       double t, const std::vector<std::uint64_t>& choice,
                                       const SimulationOptions& options) {
  if (goal.size() != model.num_states()) {
    throw ModelError("simulate_reachability: goal vector size mismatch");
  }
  if (choice.size() != model.num_states()) {
    throw ModelError("simulate_reachability: choice vector size mismatch");
  }

  // Each run is an independent replication with its own derived-seed
  // generator, so the hit count — and hence the estimate — does not depend
  // on how runs are partitioned across workers.
  RunGuard* const guard = options.guard;
  std::optional<Telemetry::Span> span;
  if (options.telemetry != nullptr) span.emplace(options.telemetry->span("simulate"));
  WorkerPool pool = make_worker_pool(options.threads, options.num_runs, 1);  // a run per worker
  std::vector<Counter*> run_counters;
  if (options.telemetry != nullptr) {
    run_counters.reserve(pool.size());
    for (unsigned w = 0; w < pool.size(); ++w) {
      run_counters.push_back(
          &options.telemetry->counter("simulate.runs.worker" + std::to_string(w)));
    }
  }
  Counter* const* const runs_out = run_counters.empty() ? nullptr : run_counters.data();
  std::vector<std::uint64_t> worker_hits(pool.size(), 0);
  std::vector<std::uint64_t> worker_completed(pool.size(), 0);
  pool.run(options.num_runs, [&](unsigned worker, std::size_t begin, std::size_t end) {
    std::uint64_t hits = 0;
    std::uint64_t completed = 0;
    std::vector<double> weights;
    for (std::size_t run = begin; run < end; ++run) {
      if (guard != nullptr && guard->should_abort_sweep()) break;
      Rng rng(derive_seed(options.seed, run));
      if (simulate_run(model, goal, t, choice, options.max_jumps, rng, weights)) ++hits;
      ++completed;
    }
    worker_hits[worker] = hits;
    worker_completed[worker] = completed;
    if (runs_out != nullptr) runs_out[worker]->add(completed);
  });

  std::uint64_t hits = 0;
  std::uint64_t completed = 0;
  for (const std::uint64_t h : worker_hits) hits += h;
  for (const std::uint64_t c : worker_completed) completed += c;

  SimulationResult result;
  result.num_runs = completed;
  if (guard != nullptr) result.status = guard->status();
  if (completed != 0) {
    result.estimate = static_cast<double>(hits) / static_cast<double>(completed);
    const double p = result.estimate;
    result.half_width = 1.96 * std::sqrt(p * (1.0 - p) / static_cast<double>(completed));
  } else {
    result.estimate = 0.0;
    result.half_width = 1.0;  // no information
  }
  if (span) {
    span->metric("runs_requested", options.num_runs);
    span->metric("runs_completed", completed);
    span->metric("runs_hit", hits);
    span->metric("threads", pool.size());
    span->metric("estimate", result.estimate);
    span->metric("half_width", result.half_width);
  }
  return result;
}

}  // namespace unicon
