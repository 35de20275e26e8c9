// Seeded fault-injection harness for the execution-control layer.
//
// Per seed, the harness replays guarded pipeline runs under deliberately
// injected faults and asserts the robustness contract: every fault must
// yield either (a) a completed result bit-identical to the unfaulted
// reference, (b) a sound partial result (status != Converged and
// |partial - reference| <= residual_bound + tolerance per state, with a
// bit-identical resume-to-completion), or (c) a typed unicon::Error /
// std::bad_alloc — never a crash, hang, or silently wrong answer.
//
// Fault kinds:
//  * cancel      — deterministic mid-iteration cancellation of Algorithm 1
//    (RunGuard::cancel_after_polls), partial-result soundness + resume;
//  * alloc       — the Nth heap allocation throws std::bad_alloc
//    (arm_allocation_failure under a MemoryAccountingScope);
//  * poison      — NaN/±Inf written into the live iterate through the
//    checkpoint span; the solver must either detect it (NumericError) or
//    prove it washed out (bit-identical convergence);
//  * pipeline    — cancellation raced against the full lang pipeline
//    (build -> minimize -> transform -> solve), exercising the BudgetError
//    path of the structural stages;
//  * corrupt     — truncation / bit flips of serialized .tra/.ctmdp/.imc/
//    .lab/.uni files; readers must parse or raise ParseError-family errors.
//
// Everything is a deterministic function of the seed (thread interleaving
// only moves *where* an allocation fault lands, never whether the contract
// holds), so failures replay with --base-seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/backend.hpp"

namespace unicon::testing {

struct FaultConfig {
  std::uint64_t base_seed = 1;
  std::uint64_t num_seeds = 100;
  /// Time bound of the guarded reachability solves.
  double time = 1.5;
  /// Truncation precision of reference and faulted solves.
  double epsilon = 1e-10;
  /// Slack on |partial - reference| <= residual_bound + tolerance (covers
  /// the reference's own epsilon truncation).
  double tolerance = 1e-9;
  /// Worker threads for the guarded solves (cancellation must stop a
  /// parallel sweep within one barrier).
  unsigned threads = 2;
  /// Compute backend for the guarded solves (Auto = UNICON_BACKEND, else
  /// simd); every backend must uphold the same robustness contract.
  Backend backend = Backend::Auto;
  /// Directory for counterexample artifacts ("" disables writing).
  std::string artifact_dir;
};

struct FaultFailure {
  std::uint64_t seed = 0;
  /// "cancel" | "alloc" | "poison" | "pipeline" | "corrupt-<format>"
  std::string scenario;
  std::string message;
  /// Artifact files written for replay (empty unless artifact_dir set).
  std::vector<std::string> artifacts;
};

struct FaultReport {
  std::uint64_t seeds_run = 0;
  std::uint64_t checks_run = 0;
  /// Faults that actually fired (a plan whose trigger lies beyond the run's
  /// natural end injects nothing and must change nothing).
  std::uint64_t faults_injected = 0;
  std::vector<FaultFailure> failures;
  bool ok() const { return failures.empty(); }
};

using FaultLogFn = std::function<void(const std::string&)>;

/// Runs seeds base_seed .. base_seed + num_seeds - 1.  @p log (optional)
/// receives one progress line per seed.
FaultReport run_fault_injection(const FaultConfig& config, const FaultLogFn& log = {});

}  // namespace unicon::testing
