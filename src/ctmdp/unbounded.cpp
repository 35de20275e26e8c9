#include "ctmdp/unbounded.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/errors.hpp"

namespace unicon {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void check_inputs(const Ctmdp& model, const BitVector& goal) {
  if (goal.size() != model.num_states()) {
    throw ModelError("unbounded analysis: goal vector size mismatch");
  }
}

/// One optimizing Gauss-Seidel sweep of the expected jump count on the
/// embedded jump chain (step cost 1); returns the sup-norm change over
/// finite entries.
double sweep(const Ctmdp& model, const BitVector& goal, const BitVector& frozen,
             bool maximize, std::vector<double>& x) {
  double delta = 0.0;
  const std::size_t n = model.num_states();
  for (StateId s = 0; s < n; ++s) {
    if (goal[s] || frozen[s]) continue;
    const auto [first, last] = model.transition_range(s);
    if (first == last) continue;  // frozen covers these; defensive
    double best = maximize ? -kInf : kInf;
    for (std::uint64_t tr = first; tr < last; ++tr) {
      const double e = model.exit_rate(tr);
      double acc = 1.0;
      for (const SparseEntry& entry : model.rates(tr)) {
        acc += (entry.value / e) * x[entry.col];
      }
      best = maximize ? std::max(best, acc) : std::min(best, acc);
    }
    if (std::isfinite(best) && std::isfinite(x[s])) {
      delta = std::max(delta, std::fabs(best - x[s]));
    } else if (std::isfinite(best) != std::isfinite(x[s])) {
      delta = std::max(delta, 1.0);
    }
    x[s] = best;
  }
  return delta;
}

}  // namespace

BitVector zero_states(const Ctmdp& model, const BitVector& goal,
                              Objective objective) {
  check_inputs(model, goal);
  const std::size_t n = model.num_states();

  if (objective == Objective::Maximize) {
    // Backward reachability: states with some path into B have positive
    // maximal probability; the rest are zero.
    BitVector can_reach = goal;
    bool changed = true;
    while (changed) {
      changed = false;
      for (StateId s = 0; s < n; ++s) {
        if (can_reach[s]) continue;
        const auto [first, last] = model.transition_range(s);
        for (std::uint64_t tr = first; tr < last && !can_reach[s]; ++tr) {
          for (const SparseEntry& e : model.rates(tr)) {
            if (can_reach[e.col]) {
              can_reach[s] = true;
              changed = true;
              break;
            }
          }
        }
      }
    }
    BitVector zero(n);
    for (StateId s = 0; s < n; ++s) zero[s] = !can_reach[s];
    return zero;
  }

  // Minimize: greatest fixpoint of "can stay outside B forever": a state
  // avoids B if it is not in B and either has no transitions or some
  // transition whose entire support avoids B.
  BitVector avoid(n);
  for (StateId s = 0; s < n; ++s) avoid[s] = !goal[s];
  bool changed = true;
  while (changed) {
    changed = false;
    for (StateId s = 0; s < n; ++s) {
      if (!avoid[s]) continue;
      const auto [first, last] = model.transition_range(s);
      if (first == last) continue;  // absorbing non-goal: avoids trivially
      bool ok = false;
      for (std::uint64_t tr = first; tr < last && !ok; ++tr) {
        bool support_avoids = true;
        for (const SparseEntry& e : model.rates(tr)) {
          if (!avoid[e.col]) {
            support_avoids = false;
            break;
          }
        }
        ok = support_avoids;
      }
      if (!ok) {
        avoid[s] = false;
        changed = true;
      }
    }
  }
  return avoid;
}

BitVector almost_sure_states(const Ctmdp& model, const BitVector& goal,
                                     Objective objective) {
  check_inputs(model, goal);
  const std::size_t n = model.num_states();

  if (objective == Objective::Minimize) {
    // Prob1A: P_min(s) = 1 iff no scheduler can, with positive probability
    // and without touching B, enter the avoid-forever region (from which B
    // is dodged surely).  Positive probability of such an excursion only
    // needs a B-free path in the transition graph.
    const BitVector bad = zero_states(model, goal, Objective::Minimize);
    BitVector can_escape = bad;  // B-free path into `bad`
    bool changed = true;
    while (changed) {
      changed = false;
      for (StateId s = 0; s < n; ++s) {
        if (can_escape[s] || goal[s]) continue;
        const auto [first, last] = model.transition_range(s);
        for (std::uint64_t tr = first; tr < last && !can_escape[s]; ++tr) {
          for (const SparseEntry& e : model.rates(tr)) {
            if (can_escape[e.col] && !goal[e.col]) {
              can_escape[s] = true;
              changed = true;
              break;
            }
          }
        }
      }
    }
    BitVector result(n);
    for (StateId s = 0; s < n; ++s) result[s] = goal[s] || !can_escape[s];
    return result;
  }

  // Prob1E (de Alfaro): greatest fixpoint over candidate sets U.  Inside
  // the loop a least fixpoint R collects the states that can reach B while
  // staying in U with some transition whose entire support remains in U.
  BitVector u(n, true);
  for (;;) {
    BitVector r = goal;
    bool grew = true;
    while (grew) {
      grew = false;
      for (StateId s = 0; s < n; ++s) {
        if (r[s] || !u[s]) continue;
        const auto [first, last] = model.transition_range(s);
        for (std::uint64_t tr = first; tr < last && !r[s]; ++tr) {
          bool stays = true;
          bool touches = false;
          for (const SparseEntry& e : model.rates(tr)) {
            stays = stays && u[e.col];
            touches = touches || r[e.col];
          }
          if (stays && touches) {
            r[s] = true;
            grew = true;
          }
        }
      }
    }
    if (r == u) return u;
    u = std::move(r);
  }
}

ExpectedTimeResult expected_reachability_time(const Ctmdp& model, const BitVector& goal,
                                              const UnboundedOptions& options) {
  check_inputs(model, goal);
  const auto uniform = model.uniform_rate();
  if (!uniform || *uniform <= 0.0) {
    throw UniformityError("expected_reachability_time: requires a uniform CTMDP with E > 0");
  }
  const double e = *uniform;
  const std::size_t n = model.num_states();
  const bool maximize = options.objective == Objective::Maximize;

  // Finiteness region, decided graph-theoretically: sup E[time] is finite
  // iff even the *minimizing* reachability scheduler hits B almost surely
  // (Prob1A); inf E[time] is finite iff some scheduler does (Prob1E).
  const BitVector almost_sure = almost_sure_states(
      model, goal, maximize ? Objective::Minimize : Objective::Maximize);

  ExpectedTimeResult result;
  result.values.assign(n, 0.0);
  BitVector frozen(n, false);
  for (StateId s = 0; s < n; ++s) {
    if (goal[s]) continue;
    const auto [first, last] = model.transition_range(s);
    if (!almost_sure[s] || first == last) {
      result.values[s] = kInf;
      frozen[s] = true;
    }
  }

  // Value iteration on expected jump counts (step cost 1), then scale by
  // the uniform sojourn mean 1/E.
  for (std::uint64_t i = 0; i < options.max_iterations; ++i) {
    const double delta = sweep(model, goal, frozen, maximize, result.values);
    ++result.iterations;
    if (delta <= options.tolerance) {
      result.converged = true;
      break;
    }
  }
  for (double& v : result.values) {
    if (std::isfinite(v)) v /= e;
  }
  return result;
}

}  // namespace unicon
