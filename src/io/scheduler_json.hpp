// On-disk scheduler artifacts (schema "unicon-scheduler-v1").
//
// Algorithm 1's optimal scheduler is a step-dependent decision table: at
// countdown step i every state names the transition to take.  This module
// makes that a first-class, exchangeable artifact: a single JSON object
// carrying the full table plus enough solve metadata (objective, horizon,
// epsilon, uniform rate) to re-evaluate it independently.  The round trip
// is exact — evaluate_countdown_scheduler on a re-read artifact reproduces
// the optimal value of the originating solve bit-identically on every
// backend (both extract and replay on the serial rows), which is what the
// scheduler tests assert.
//
// Schema (one JSON object, field order fixed):
//   schema            "unicon-scheduler-v1"
//   objective         "max" | "min"
//   time              horizon t of the solve
//   epsilon           truncation precision of the solve
//   uniform_rate      E
//   lambda            E * t
//   states            number of states n
//   steps             decision rows k (= Poisson right truncation point)
//   value             optimal value at the model's initial state
//   initial_decision  n entries, transition index or -1 (no transition:
//                     goal, avoided or transitionless state)
//   decisions         k rows of n entries each; row j = countdown step j+1
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ctmdp/reachability.hpp"
#include "ctmdp/scheduler.hpp"

namespace unicon::io {

struct SchedulerArtifact {
  Objective objective = Objective::Maximize;
  double time = 0.0;
  double epsilon = 0.0;
  double uniform_rate = 0.0;
  double lambda = 0.0;
  std::uint64_t states = 0;
  std::uint64_t steps = 0;
  /// Optimal value at the initial state of the originating solve.
  double value = 0.0;
  std::vector<std::uint64_t> initial_decision;
  std::vector<std::vector<std::uint64_t>> decisions;

  /// The decision table as an evaluable scheduler object.
  CountdownScheduler scheduler() const { return CountdownScheduler(decisions); }
};

/// Packages a solve result (extract_scheduler must have recorded the full
/// decision table) as an artifact.  @p value is the optimal value at the
/// initial state; throws ModelError when the result has no decision table
/// or a row without one entry per state (a solve stopped by its guard
/// leaves the rows below its stop step empty).
SchedulerArtifact scheduler_artifact_from_result(const TimedReachabilityResult& result,
                                                 Objective objective, double time,
                                                 double epsilon, double value);

/// Single-line JSON serialization (with trailing newline), deterministic
/// byte-for-byte: insertion-ordered fields, kNoTransition encoded as -1.
std::string scheduler_to_json(const SchedulerArtifact& artifact);

/// Strict parse + validation (schema string, row shape, entry ranges).
/// Throws ParseError on malformed input or a schema mismatch.
SchedulerArtifact scheduler_from_json(const std::string& text);

}  // namespace unicon::io
