// Server robustness harnesses: wire-protocol mutation fuzzing and chaos
// injection against a live AnalysisService (unicon_fuzz --server).
//
// Two drivers, both deterministic functions of base_seed:
//
//  * run_server_fuzz — builds a valid JSONL request stream from random
//    models, applies seeded line-granular mutations (bit flips, truncation,
//    NUL bytes, garbage lines, pathological nesting, oversized lines,
//    unknown / mistyped envelope fields) and replays the damaged stream
//    through run_session.  The oracle: the session must terminate, every
//    output line must parse as JSON, every *untouched* request must be
//    answered with results bit-identical to a clean replay of the same
//    stream, and a trailing untouched shutdown op must still be answered —
//    proof the session re-synchronized past every mutation.  No crash, no
//    hang, no unsound answer.
//
//  * run_server_chaos — injects the PR4 fault plans into live service
//    sessions: cancel-mid-sweep next to a clean co-request, allocation
//    failure, NaN-poisoned iterate, simulated worker death, snapshot
//    warm restart (bit-identical answers, byte-identical re-snapshot),
//    torn/corrupted snapshot (detected, degrades to cold start), and
//    overload + drain (Overloaded answers carry retry_after_ms, drain
//    refuses new work and completes the rest).  Surviving requests must be
//    answered bit-identically to an undisturbed reference service.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace unicon::testing {

struct ServerFuzzConfig {
  std::uint64_t base_seed = 1;
  std::uint64_t num_seeds = 20;
  /// Mutations applied per request stream (wire fuzz only).
  unsigned mutations_per_stream = 4;
  /// Directory for the chaos snapshot legs' scratch files (created by
  /// run_server_chaos when missing).
  std::string scratch_dir = ".";
};

struct ServerFuzzFailure {
  std::uint64_t seed = 0;
  std::string scenario;  ///< "wire", "cancel", "alloc", "poison", ...
  std::string message;
};

struct ServerFuzzReport {
  std::uint64_t seeds_run = 0;
  std::uint64_t checks_run = 0;
  std::uint64_t faults_injected = 0;
  std::vector<ServerFuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Invoked as each failure is recorded (progress reporting in unicon_fuzz).
using ServerFuzzLogFn = std::function<void(const ServerFuzzFailure&)>;

ServerFuzzReport run_server_fuzz(const ServerFuzzConfig& config,
                                 const ServerFuzzLogFn& log = {});

ServerFuzzReport run_server_chaos(const ServerFuzzConfig& config,
                                  const ServerFuzzLogFn& log = {});

}  // namespace unicon::testing
