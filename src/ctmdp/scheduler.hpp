// Scheduler objects for CTMDPs.
//
// Algorithm 1 constructs an optimal *step-dependent* scheduler D_0 (the
// transition to pick at each countdown step i); stationary schedulers pick
// per state only.  This module makes both first-class: they can be
// evaluated, simulated, and — for stationary ones — used to build the
// induced CTMC.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmdp/ctmdp.hpp"
#include "ctmdp/reachability.hpp"

namespace unicon {

/// A stationary (memoryless, time-abstract) scheduler: one transition
/// index per state (kNoTransition for states without transitions).
class StationaryScheduler {
 public:
  StationaryScheduler() = default;
  explicit StationaryScheduler(std::vector<std::uint64_t> choice) : choice_(std::move(choice)) {}

  /// The scheduler that always picks the first transition of each state.
  static StationaryScheduler first_transition(const Ctmdp& model);

  /// Extracts the decisions Algorithm 1 makes at step i = 1 (the choice
  /// relevant at time 0) as a stationary scheduler; states without a
  /// recorded decision fall back to their first transition.
  static StationaryScheduler from_initial_decisions(const Ctmdp& model,
                                                    const TimedReachabilityResult& result);

  std::uint64_t choice(StateId s) const { return choice_[s]; }
  std::vector<std::uint64_t>& choices() { return choice_; }
  const std::vector<std::uint64_t>& choices() const { return choice_; }

  /// Validates against @p model (every state with transitions has a choice
  /// within its range); throws ModelError otherwise.
  void validate(const Ctmdp& model) const;

  /// The CTMC induced by following this scheduler forever.
  Ctmc induced_ctmc(const Ctmdp& model) const;

 private:
  std::vector<std::uint64_t> choice_;
};

/// The step-dependent scheduler of Algorithm 1: decisions[j] holds the
/// per-state choices at countdown step i = j + 1.  Requires
/// extract_scheduler with a full decision table.
class CountdownScheduler {
 public:
  explicit CountdownScheduler(std::vector<std::vector<std::uint64_t>> decisions)
      : decisions_(std::move(decisions)) {}

  static CountdownScheduler from_result(const TimedReachabilityResult& result);

  std::uint64_t num_steps() const { return decisions_.size(); }

  /// Choice at countdown step i (1-based, i <= num_steps()); steps beyond
  /// the table fall back to the last recorded row.  Throws ModelError when
  /// that row holds no entry for @p s.
  std::uint64_t choice(std::uint64_t i, StateId s) const;

 private:
  std::vector<std::vector<std::uint64_t>> decisions_;
};

/// Policy evaluation of a step-dependent scheduler: a one-horizon run of the
/// timed_reachability driver on serial rows that take the transition
/// @p scheduler names at each step instead of the best one.  Extraction runs
/// the same rows on every backend, so an extracted table replays its solve's
/// values *bit-identically* (the scheduler-artifact round trip).  A
/// kNoTransition choice pins the state to 0; values are clamped like every
/// solver's (goal states report 1).  Pure Fox-Glynn at options.epsilon,
/// locking off; honours threads, guard (partial results) and telemetry.
/// Validates the table rows it will read before sweeping: ModelError on an
/// out-of-range choice, UniformityError on non-uniform models.
TimedReachabilityResult evaluate_countdown_scheduler(const Ctmdp& model, const BitVector& goal,
                                                     double t,
                                                     const CountdownScheduler& scheduler,
                                                     const TimedReachabilityOptions& options = {});

}  // namespace unicon
