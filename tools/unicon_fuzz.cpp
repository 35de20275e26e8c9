// unicon_fuzz — differential fuzzing driver for the analysis pipeline.
//
// Usage:
//   unicon_fuzz [--seeds N] [--base-seed S] [--seed S] [--time T] [--eps E]
//               [--tol D] [--mc-runs N] [--no-shrink] [--mutate NAME]
//               [--out DIR] [--self-check] [-v]
//
// Per seed, five model families are generated and every optimized code path
// is cross-checked against the independent oracles of src/testing (see
// DESIGN.md, "Testing & differential verification").  Exit code 0 iff every
// check of every seed passed.
//
//   --seed S       replay a single seed (equivalent to --base-seed S
//                  --seeds 1); combine with --out to dump its models
//   --mutate NAME  inject a deliberate solver bug (perturb-value,
//                  swap-objective, coarse-poisson, stale-goal) — the run
//                  must then FAIL, which --self-check automates
//   --self-check   verify the driver catches every mutation on a small
//                  corpus, then run the clean corpus
//   --backend B    force the solver backend (serial, simd, simd-portable;
//                  default auto = UNICON_BACKEND env or simd) in every
//                  differential solve — run the self-check once per backend
//                  to differentially certify each kernel implementation
//   --out DIR      write shrunk counterexample models (.imc/.ctmdp/.tra +
//                  .lab + replay note) into DIR
//   --lang         fuzz the UNI language frontend instead: random generated
//                  models are round-tripped print -> parse -> check -> build
//                  and both builds must agree exactly (see lang/fuzz.hpp)
//   --faults       run the fault-injection harness instead: seeded budget
//                  cancellations, allocation failures, NaN poisoning and
//                  file corruption, asserting every fault yields a correct
//                  result, a sound partial result, or a typed error (see
//                  testing/fault_injection.hpp); --threads sets the worker
//                  count of the guarded solves
//   --dft          run the dynamic-fault-tree differential instead: per seed
//                  a random Galileo tree is lowered through the production
//                  pipeline (compose/minimize/transform/Algorithm 1, sup and
//                  inf) and checked against the independent brute-force
//                  product-enumeration oracle (testing/dft_oracle.hpp),
//                  plus thread-count bit-identity; with --self-check the
//                  perturb-value and swap-objective mutations must be caught
//   --server       run the analysis-server robustness harness instead: per
//                  seed a valid JSONL request stream is mutated (bit flips,
//                  truncation, NUL bytes, garbage, pathological nesting,
//                  oversized lines, unknown/mistyped fields) and replayed
//                  through a live session — the session must answer every
//                  untouched request bit-identically to a clean replay and
//                  re-synchronize past every mutation; then the chaos
//                  scenarios inject fault plans (cancel-mid-sweep, alloc
//                  failure, NaN poisoning, worker death), torn and pristine
//                  cache snapshots, and overload + drain into live services
//                  (see testing/server_fuzz.hpp); --out sets the snapshot
//                  scratch directory (created when missing)
//   --batch        run the multi-horizon differential instead: per seed a
//                  random CTMDP (sup and inf) and CTMC are solved through
//                  timed_reachability_batch on a random bound set (unsorted,
//                  duplicates, zeros) and each horizon is checked bitwise
//                  against its independent single-t solve plus the dense
//                  oracle; seed shrinking, --out and --self-check work as in
//                  normal mode
//   --truncation   run the truncation differential instead: per seed a
//                  random CTMDP (sup and inf) and CTMC are solved at a short
//                  and a long horizon (lambda*t = 1500, so the Lyapunov
//                  certificate engages) under every truncation provider
//                  (fox-glynn, lyapunov, auto) with convergence locking on
//                  and off; locking must be bitwise invisible, providers
//                  must agree within tolerance, and every variant must match
//                  the dense oracle; seed shrinking, --out and --self-check
//                  work as in normal mode
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "lang/fuzz.hpp"
#include "support/backend.hpp"
#include "support/errors.hpp"
#include "support/telemetry.hpp"
#include "testing/dft_oracle.hpp"
#include "testing/differential.hpp"
#include "testing/fault_injection.hpp"
#include "testing/server_fuzz.hpp"

using namespace unicon;
using namespace unicon::testing;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: unicon_fuzz [--seeds N] [--base-seed S] [--seed S] [--time T]\n"
               "                   [--eps E] [--tol D] [--mc-runs N] [--no-shrink]\n"
               "                   [--mutate perturb-value|swap-objective|coarse-poisson|"
               "stale-goal]\n"
               "                   [--out DIR] [--self-check] [--lang] [--faults] [--batch]\n"
               "                   [--truncation] [--dft] [--server]\n"
               "                   [--backend auto|serial|simd|simd-portable]\n"
               "                   [--threads N] [-v]\n");
  std::exit(2);
}

int run_fault_mode(const DifferentialConfig& config, unsigned threads, bool verbose) {
  FaultConfig fault_config;
  fault_config.num_seeds = config.num_seeds;
  fault_config.base_seed = config.base_seed;
  fault_config.time = config.time;
  fault_config.epsilon = config.epsilon;
  fault_config.tolerance = config.tolerance;
  fault_config.threads = threads;
  fault_config.backend = config.backend;
  fault_config.artifact_dir = config.artifact_dir;
  const FaultLogFn log = [](const std::string& line) { std::printf("%s\n", line.c_str()); };
  Stopwatch timer;
  const FaultReport report = run_fault_injection(fault_config, verbose ? log : FaultLogFn{});
  std::printf("%llu seeds, %llu checks, %llu faults injected, %zu failures\n",
              static_cast<unsigned long long>(report.seeds_run),
              static_cast<unsigned long long>(report.checks_run),
              static_cast<unsigned long long>(report.faults_injected), report.failures.size());
  for (const FaultFailure& f : report.failures) {
    std::printf("FAIL seed %llu [%s]: %s\n", static_cast<unsigned long long>(f.seed),
                f.scenario.c_str(), f.message.c_str());
    for (const std::string& path : f.artifacts) std::printf("  artifact: %s\n", path.c_str());
  }
  std::printf("%.1f s\n", timer.seconds());
  return report.ok() ? 0 : 1;
}

int run_server_mode(const DifferentialConfig& config, bool verbose) {
  ServerFuzzConfig server_config;
  server_config.num_seeds = config.num_seeds;
  server_config.base_seed = config.base_seed;
  if (!config.artifact_dir.empty()) server_config.scratch_dir = config.artifact_dir;
  const ServerFuzzLogFn log = [](const ServerFuzzFailure& f) {
    std::printf("FAIL seed %llu [%s]: %s\n", static_cast<unsigned long long>(f.seed),
                f.scenario.c_str(), f.message.c_str());
  };
  Stopwatch timer;

  std::printf("wire-protocol mutation fuzz:\n");
  const ServerFuzzReport wire = run_server_fuzz(server_config, log);
  std::printf("%llu seeds, %llu checks, %llu mutations, %zu failures\n",
              static_cast<unsigned long long>(wire.seeds_run),
              static_cast<unsigned long long>(wire.checks_run),
              static_cast<unsigned long long>(wire.faults_injected), wire.failures.size());

  std::printf("chaos scenarios:\n");
  const ServerFuzzReport chaos = run_server_chaos(server_config, log);
  std::printf("%llu seeds, %llu checks, %llu faults injected, %zu failures\n",
              static_cast<unsigned long long>(chaos.seeds_run),
              static_cast<unsigned long long>(chaos.checks_run),
              static_cast<unsigned long long>(chaos.faults_injected), chaos.failures.size());

  (void)verbose;  // failures always print; there is no extra per-seed chatter
  std::printf("%.1f s\n", timer.seconds());
  return wire.ok() && chaos.ok() ? 0 : 1;
}

int run_lang_mode(const DifferentialConfig& config, bool verbose) {
  lang::LangFuzzConfig lang_config;
  lang_config.num_seeds = config.num_seeds;
  lang_config.base_seed = config.base_seed;
  lang_config.time = config.time;
  lang_config.epsilon = config.epsilon;
  const lang::LangLogFn log = [](const std::string& line) { std::printf("%s\n", line.c_str()); };
  Stopwatch timer;
  const lang::LangFuzzReport report =
      lang::run_lang_fuzz(lang_config, verbose ? log : lang::LangLogFn{});
  std::printf("%llu seeds, %llu checks, %zu failures\n",
              static_cast<unsigned long long>(report.seeds_run),
              static_cast<unsigned long long>(report.checks_run), report.failures.size());
  for (const lang::LangFuzzFailure& f : report.failures) {
    std::printf("FAIL seed %llu: %s\n", static_cast<unsigned long long>(f.seed),
                f.message.c_str());
  }
  std::printf("%.1f s\n", timer.seconds());
  return report.ok() ? 0 : 1;
}

int report_dft_outcome(const DftFuzzReport& report) {
  std::printf("%llu seeds, %llu checks, %zu failures\n",
              static_cast<unsigned long long>(report.seeds_run),
              static_cast<unsigned long long>(report.checks_run), report.failures.size());
  for (const DftFuzzFailure& f : report.failures) {
    std::printf("FAIL seed %llu [dft, shrink level %d]: %s\n%s",
                static_cast<unsigned long long>(f.seed), f.level, f.message.c_str(),
                f.source.c_str());
    for (const std::string& path : f.artifacts) std::printf("  artifact: %s\n", path.c_str());
  }
  return report.ok() ? 0 : 1;
}

int run_dft_mode(const DifferentialConfig& config, bool run_self_check, bool verbose) {
  DftFuzzConfig dft_config;
  dft_config.num_seeds = config.num_seeds;
  dft_config.base_seed = config.base_seed;
  dft_config.time = config.time;
  dft_config.epsilon = config.epsilon;
  dft_config.tolerance = config.tolerance;
  dft_config.backend = config.backend;
  dft_config.mutation = config.mutation;
  dft_config.shrink = config.shrink;
  dft_config.artifact_dir = config.artifact_dir;
  const DftLogFn log = [](const std::string& line) { std::printf("%s\n", line.c_str()); };
  Stopwatch timer;
  if (run_self_check) {
    dft_config.num_seeds = 6;
    dft_config.shrink = false;
    dft_config.artifact_dir.clear();
    for (const Mutation m : {Mutation::PerturbValue, Mutation::SwapObjective}) {
      dft_config.mutation = m;
      if (run_dft_fuzz(dft_config).ok()) {
        std::printf("self-check FAILED: mutation %s not caught on %llu dft seeds\n",
                    mutation_name(m), static_cast<unsigned long long>(dft_config.num_seeds));
        return 1;
      }
      std::printf("self-check: mutation %s caught\n", mutation_name(m));
    }
    // The clean run below still honours the requested corpus shape.
    dft_config.mutation = Mutation::None;
    dft_config.num_seeds = config.num_seeds;
    dft_config.shrink = config.shrink;
    dft_config.artifact_dir = config.artifact_dir;
  }
  const DftFuzzReport report = run_dft_fuzz(dft_config, verbose ? log : DftLogFn{});
  const int exit_code = report_dft_outcome(report);
  std::printf("%.1f s\n", timer.seconds());
  return exit_code;
}

int report_outcome(const DifferentialReport& report) {
  std::printf("%llu seeds, %llu checks, %zu failures\n",
              static_cast<unsigned long long>(report.seeds_run),
              static_cast<unsigned long long>(report.checks_run), report.failures.size());
  for (const Failure& f : report.failures) {
    std::printf("FAIL seed %llu [%s, shrink level %d]: %s\n",
                static_cast<unsigned long long>(f.seed), f.scenario.c_str(), f.level,
                f.message.c_str());
    for (const std::string& path : f.artifacts) std::printf("  artifact: %s\n", path.c_str());
  }
  return report.ok() ? 0 : 1;
}

/// Every mutation must be caught on a small corpus, and the clean run of the
/// same corpus must pass — the mutation-testing acceptance gate.
int self_check(DifferentialConfig config) {
  config.num_seeds = 8;
  config.shrink = false;
  config.artifact_dir.clear();
  for (const Mutation m : {Mutation::PerturbValue, Mutation::SwapObjective,
                           Mutation::CoarsePoisson, Mutation::StaleGoal}) {
    config.mutation = m;
    const DifferentialReport report = run_differential(config);
    if (report.ok()) {
      std::printf("self-check FAILED: mutation %s not caught on %llu seeds\n", mutation_name(m),
                  static_cast<unsigned long long>(config.num_seeds));
      return 1;
    }
    std::printf("self-check: mutation %s caught (%zu failing seeds)\n", mutation_name(m),
                report.failures.size());
  }
  config.mutation = Mutation::None;
  const DifferentialReport clean = run_differential(config);
  if (!clean.ok()) {
    std::printf("self-check FAILED: clean corpus has failures\n");
    return report_outcome(clean);
  }
  std::printf("self-check passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DifferentialConfig config;
  bool verbose = false;
  bool run_self_check = false;
  bool lang_mode = false;
  bool fault_mode = false;
  bool dft_mode = false;
  bool server_mode = false;
  unsigned threads = 2;

  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seeds") == 0) {
      config.num_seeds = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--base-seed") == 0) {
      config.base_seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      config.base_seed = std::strtoull(value(), nullptr, 10);
      config.num_seeds = 1;
      verbose = true;
    } else if (std::strcmp(argv[i], "--time") == 0) {
      config.time = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--eps") == 0) {
      config.epsilon = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--tol") == 0) {
      config.tolerance = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--mc-runs") == 0) {
      config.mc_runs = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      config.shrink = false;
    } else if (std::strcmp(argv[i], "--mutate") == 0) {
      const auto mutation = parse_mutation(value());
      if (!mutation) usage();
      config.mutation = *mutation;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      config.artifact_dir = value();
    } else if (std::strcmp(argv[i], "--self-check") == 0) {
      run_self_check = true;
    } else if (std::strcmp(argv[i], "--lang") == 0) {
      lang_mode = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      fault_mode = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      config.batch = true;
    } else if (std::strcmp(argv[i], "--truncation") == 0) {
      config.truncation = true;
    } else if (std::strcmp(argv[i], "--dft") == 0) {
      dft_mode = true;
    } else if (std::strcmp(argv[i], "--server") == 0) {
      server_mode = true;
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      try {
        config.backend = parse_backend(value());
      } catch (const ModelError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage();
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (std::strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else {
      usage();
    }
  }

  if (server_mode) return run_server_mode(config, verbose);
  if (fault_mode) return run_fault_mode(config, threads, verbose);
  if (lang_mode) return run_lang_mode(config, verbose);
  if (dft_mode) return run_dft_mode(config, run_self_check, verbose);
  if (run_self_check) return self_check(config);

  const LogFn log = [](const std::string& line) { std::printf("%s\n", line.c_str()); };
  Stopwatch timer;
  const DifferentialReport report = run_differential(config, verbose ? log : LogFn{});
  const int exit_code = report_outcome(report);
  std::printf("%.1f s\n", timer.seconds());
  if (config.mutation != Mutation::None) {
    std::printf("note: mutation %s active — a failing run is the expected outcome\n",
                mutation_name(config.mutation));
  }
  return exit_code;
}
