// unicon_check — command-line timed reachability.
//
// Usage:
//   unicon_check model <model.uni> <t> [--goal NAME] [--objective min|max]
//                [--eps E] [--early] [--no-minimize] [--export PREFIX]
//                [--export-scheduler PATH] [common]
//   unicon_check dft   <tree.dft> <t> [--objective min|max] [--eps E]
//                [--early] [--no-minimize] [--export-scheduler PATH] [common]
//   unicon_check ctmdp <model.ctmdp> <goal.lab> <t> [--objective min|max]
//                [--eps E] [--early] [--scheduler] [common]
//   unicon_check ctmc  <model.tra>   <goal.lab> <t> [--eps E] [--early]
//                [common]
//
// --min is a backward-compatible alias for --objective min.  The "dft" mode
// parses a Galileo-format dynamic fault tree, lowers it onto the IMC
// composition pipeline (src/dft/) and reports the unreliability bound
// sup/inf P(top event fails within t).  --export-scheduler writes the
// optimal step-dependent scheduler as a unicon-scheduler-v1 JSON artifact
// (see io/scheduler_json.hpp); it requires a single-bound converged solve
// without --early.
//
// Batch mode (every kind): --times T1,T2,... answers several time bounds
// with ONE fused multi-horizon solve (the positional <t> is ignored).
// Each bound's value, residual bound and iteration counts are bit-identical
// to a separate single-bound run; the exit code is that of the first
// unconverged bound (0 when all converged).
//
// Common execution-control flags (every mode):
//   --backend NAME     compute backend for the solver sweeps: auto (default;
//                      honours UNICON_BACKEND, else simd), serial, simd,
//                      or simd-portable — see DESIGN.md Sec. 10
//   --truncation NAME  truncation-bound provider: auto (default; Lyapunov
//                      certificate on long horizons, Fox–Glynn otherwise),
//                      fox-glynn, or lyapunov — see DESIGN.md Sec. 14
//   --no-locking       disable on-the-fly convergence locking (values are
//                      bit-identical either way; this exists for A/B timing)
//   --deadline S       wall-clock budget in seconds
//   --mem-budget B     heap budget in bytes (K/M/G suffixes accepted)
//   --json-errors      machine-readable error/partial diagnostics on stderr
//   --telemetry PATH   write pipeline telemetry JSON to PATH ("-" = stderr);
//                      flushed on every exit path, so a budget-tripped run
//                      still emits its partial span tree
//
// The "model" mode drives the whole uniform-by-construction pipeline from a
// UNI source file: parse -> semantic check -> compose/elapse -> branching
// bisimulation minimization -> Sec. 4.1 transformation -> Algorithm 1.  The
// serialized-model modes consume the io library's formats (see io/tra.hpp);
// goal.lab marks goal states with the proposition "goal".  All modes print
// the optimal probability at the initial state plus solver statistics.
//
// Budgets and SIGINT cancel cooperatively through a RunGuard: the solvers
// return a partial value tagged with its status and a sound residual bound,
// structural stages stop with a typed BudgetError.  The process exit code
// is the stable ErrorCode of whatever ended the run (see support/errors.hpp;
// 0 = converged, 2 = usage, 20/21/22 = deadline/mem-budget/cancelled).
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "ctmc/transient.hpp"
#include "support/backend.hpp"
#include "ctmdp/reachability.hpp"
#include "ctmdp/scheduler.hpp"
#include "dft/lower.hpp"
#include "dft/sema.hpp"
#include "io/scheduler_json.hpp"
#include "io/tra.hpp"
#include "lang/build.hpp"
#include "lang/diagnostics.hpp"
#include "lang/parser.hpp"
#include "support/errors.hpp"
#include "support/run_guard.hpp"
#include "support/telemetry.hpp"

using namespace unicon;

namespace {

// File scope so the SIGINT handler can reach it; request_cancel is
// async-signal-safe (lock-free atomic stores only).
RunGuard g_guard;

extern "C" void handle_sigint(int) { g_guard.request_cancel(); }

/// Process-wide telemetry registry; armed (threaded into the pipeline and
/// flushed) only when --telemetry is given.
Telemetry g_telemetry;

/// Execution-control options shared by every mode.
struct GuardFlags {
  double deadline = 0.0;        // seconds; 0 = none
  std::uint64_t mem_budget = 0; // bytes; 0 = none
  bool json_errors = false;
  std::string telemetry_path;   // empty = telemetry off; "-" = stderr
  Backend backend = Backend::Auto;
  Truncation truncation = Truncation::Auto;
  bool locking = true;
  std::vector<double> times;    // non-empty = batch mode (--times)
};

/// The registry to thread through the pipeline: null when --telemetry was
/// not given, so the unobserved path stays branch-per-site cheap.
Telemetry* telemetry_of(const GuardFlags& flags) {
  return flags.telemetry_path.empty() ? nullptr : &g_telemetry;
}

/// Flushes the telemetry JSON on destruction — every exit path of a mode,
/// including exception unwinding (the stage spans RAII-close first, and
/// write_json_file emits still-open spans with elapsed-so-far time), so a
/// budget-tripped or failed run still writes a truthful partial tree.
struct TelemetryFlusher {
  explicit TelemetryFlusher(const GuardFlags& f) : flags(f) {}
  ~TelemetryFlusher() {
    if (!flags.telemetry_path.empty()) g_telemetry.write_json_file(flags.telemetry_path);
  }
  const GuardFlags& flags;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: unicon_check model <model.uni> <t> [--goal NAME] [--objective min|max] "
               "[--eps E] [--early] [--no-minimize] [--export PREFIX] "
               "[--export-scheduler PATH] [common]\n"
               "       unicon_check dft   <tree.dft> <t> [--objective min|max] [--eps E] "
               "[--early] [--no-minimize] [--export-scheduler PATH] [common]\n"
               "       unicon_check ctmdp <model.ctmdp> <goal.lab> <t> [--objective min|max] "
               "[--eps E] [--early] [--scheduler] [common]\n"
               "       unicon_check ctmc  <model.tra>   <goal.lab> <t> [--eps E] [--early] "
               "[common]\n"
               "common: [--times T1,T2,...] [--backend auto|serial|simd|simd-portable] "
               "[--truncation auto|fox-glynn|lyapunov] [--no-locking] "
               "[--deadline S] [--mem-budget BYTES[K|M|G]] [--json-errors] "
               "[--telemetry PATH]\n");
  std::exit(2);
}

/// --objective value: "min"/"max" (the --min flag remains as an alias).
bool parse_objective_flag(const char* arg) {
  if (std::strcmp(arg, "min") == 0) return true;
  if (std::strcmp(arg, "max") == 0) return false;
  std::fprintf(stderr, "error: --objective must be 'min' or 'max', got '%s'\n", arg);
  std::exit(2);
}

/// Strict numeric argument parsing: the whole string must be a finite,
/// non-negative number (strtod's silent 0.0 on garbage hid typos before).
double parse_nonnegative(const char* arg, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    std::fprintf(stderr, "error: %s must be a non-negative number, got '%s'\n", what, arg);
    std::exit(2);
  }
  return value;
}

double parse_positive(const char* arg, const char* what) {
  const double value = parse_nonnegative(arg, what);
  if (value == 0.0) {
    std::fprintf(stderr, "error: %s must be positive, got '%s'\n", what, arg);
    std::exit(2);
  }
  return value;
}

/// "64M" -> 64 << 20; bare numbers are bytes.
std::uint64_t parse_mem_budget(const char* arg) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(arg, &end, 10);
  std::uint64_t scale = 1;
  if (end != arg && *end != '\0' && end[1] == '\0') {
    switch (*end) {
      case 'K': case 'k': scale = 1ull << 10; break;
      case 'M': case 'm': scale = 1ull << 20; break;
      case 'G': case 'g': scale = 1ull << 30; break;
      default: end = const_cast<char*>(arg); break;
    }
  }
  if (end == arg || (*end != '\0' && scale == 1) || value == 0) {
    std::fprintf(stderr, "error: --mem-budget must be a positive byte count, got '%s'\n", arg);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(value) * scale;
}

/// "0.5,2,8" -> {0.5, 2, 8}; every entry must be a non-negative number.
std::vector<double> parse_times(const char* arg) {
  std::vector<double> times;
  const std::string list = arg;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string token = list.substr(start, comma - start);
    times.push_back(parse_nonnegative(token.c_str(), "--times entry"));
    start = comma + 1;
  }
  return times;
}

/// Consumes a common flag at argv[i] (advancing i past its value) or
/// returns false so the caller can try its mode-specific flags.
bool parse_common_flag(int argc, char** argv, int& i, GuardFlags& flags) {
  if (std::strcmp(argv[i], "--times") == 0 && i + 1 < argc) {
    flags.times = parse_times(argv[++i]);
    return true;
  }
  if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc) {
    flags.deadline = parse_positive(argv[++i], "--deadline");
    return true;
  }
  if (std::strcmp(argv[i], "--mem-budget") == 0 && i + 1 < argc) {
    flags.mem_budget = parse_mem_budget(argv[++i]);
    return true;
  }
  if (std::strcmp(argv[i], "--json-errors") == 0) {
    flags.json_errors = true;
    return true;
  }
  if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
    flags.telemetry_path = argv[++i];
    return true;
  }
  if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
    try {
      flags.backend = parse_backend(argv[++i]);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(2);
    }
    return true;
  }
  if (std::strcmp(argv[i], "--truncation") == 0 && i + 1 < argc) {
    try {
      flags.truncation = parse_truncation(argv[++i]);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(2);
    }
    return true;
  }
  if (std::strcmp(argv[i], "--no-locking") == 0) {
    flags.locking = false;
    return true;
  }
  return false;
}

/// Printed after the iteration counts of a single-bound solve, only when
/// the Lyapunov provider was actually resolved (auto stays silent on the
/// Fox–Glynn path so historical output is unchanged), with the survival
/// sweeps the certificate paid for.  @p r is a CTMDP or CTMC result.
template <class Result>
void report_truncation(const Result& r) {
  if (r.truncation != Truncation::Lyapunov) return;
  const auto probes = static_cast<unsigned long long>(r.lyapunov_probes);
  if (r.k_lyapunov == 0) {
    std::printf("truncation: lyapunov (no certificate stop, %llu probes)\n", probes);
    return;
  }
  std::printf("truncation: lyapunov (certificate stop at step %llu, %llu probes)\n",
              static_cast<unsigned long long>(r.k_lyapunov), probes);
}

using telemetry::json_escape;

/// Prints the error (JSON or plain) and returns its stable exit code.
int report_error(const Error& e, const GuardFlags& flags) {
  if (flags.json_errors) {
    std::fprintf(stderr, "{\"error\":{\"code\":\"%s\",\"exit\":%d,\"message\":\"%s\"}}\n",
                 error_code_name(e.code()), e.exit_code(), json_escape(e.what()).c_str());
  } else {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  return e.exit_code();
}

/// One row of a --times batch answer, normalized across solver kinds.
struct BoundSummary {
  double time = 0.0;
  double value = 0.0;
  std::uint64_t planned = 0;
  std::uint64_t executed = 0;
  RunStatus status = RunStatus::Converged;
  double residual = 0.0;
};

/// Batch-mode tail shared by every kind: one value line per bound, partial
/// diagnostics for unconverged bounds, exit code of the first unconverged
/// bound (0 when the whole batch converged).
int report_batch(const char* objective, const std::string& goal_desc,
                 const std::vector<BoundSummary>& bounds, const GuardFlags& flags) {
  int exit_code = 0;
  for (const BoundSummary& b : bounds) {
    std::printf("%s%sP(reach %s within %g) = %.10f   (iterations: %llu planned, %llu executed)\n",
                objective, objective[0] != '\0' ? " " : "", goal_desc.c_str(), b.time, b.value,
                static_cast<unsigned long long>(b.planned),
                static_cast<unsigned long long>(b.executed));
    if (b.status != RunStatus::Converged) {
      std::printf("  status: %s (partial result), residual bound: %.3e\n",
                  run_status_name(b.status), b.residual);
      if (flags.json_errors) {
        std::fprintf(stderr,
                     "{\"partial\":{\"time\":%.17g,\"status\":\"%s\",\"residual_bound\":%.17g}}\n",
                     b.time, run_status_name(b.status), b.residual);
      }
      if (exit_code == 0) exit_code = static_cast<int>(run_status_code(b.status));
    }
  }
  return exit_code;
}

/// Reports a budget-stopped partial solver result and returns the exit
/// code of its status (0 when the run actually converged).
int report_partial(RunStatus status, double residual_bound, const GuardFlags& flags) {
  if (status == RunStatus::Converged) return 0;
  std::printf("status: %s (partial result)\n", run_status_name(status));
  std::printf("residual bound: %.3e\n", residual_bound);
  if (flags.json_errors) {
    std::fprintf(stderr, "{\"partial\":{\"status\":\"%s\",\"residual_bound\":%.17g}}\n",
                 run_status_name(status), residual_bound);
  }
  return static_cast<int>(run_status_code(status));
}

/// Arms g_guard per the flags and opens the accounting scope a heap budget
/// needs.  SIGINT cancellation is armed unconditionally.  With --telemetry
/// the solver checkpoints also update live progress gauges, so a budget- or
/// signal-tripped run's flushed JSON records how far Algorithm 1 got.
std::unique_ptr<MemoryAccountingScope> arm_guard(const GuardFlags& flags) {
  std::signal(SIGINT, handle_sigint);
  if (flags.deadline > 0.0) g_guard.set_deadline(flags.deadline);
  if (!flags.telemetry_path.empty()) {
    g_guard.set_checkpoint(
        [](const RunCheckpoint& cp) {
          g_telemetry.gauge("checkpoint.step").set(static_cast<double>(cp.step));
          g_telemetry.gauge("checkpoint.planned").set(static_cast<double>(cp.planned));
          g_telemetry.gauge("checkpoint.residual_bound").set(cp.residual_bound);
        },
        32);
  }
  if (flags.mem_budget > 0) {
    g_guard.set_memory_budget(flags.mem_budget);
    return std::make_unique<MemoryAccountingScope>(g_guard);
  }
  return nullptr;
}

BitVector load_goal(const std::string& path, std::size_t num_states) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open goal file: " + path);
  return io::read_goal(in, num_states);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open model file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes the extracted decision table of a converged single-bound solve as
/// a unicon-scheduler-v1 artifact.
void export_scheduler_artifact(const std::string& path, const UimcAnalysisResult& result,
                               Objective objective, double t, double eps) {
  if (result.reachability.status != RunStatus::Converged) {
    std::fprintf(stderr, "warning: solve did not converge, skipping scheduler export\n");
    return;
  }
  const io::SchedulerArtifact artifact =
      io::scheduler_artifact_from_result(result.reachability, objective, t, eps, result.value);
  std::ofstream out(path);
  if (!out) throw ParseError("cannot open scheduler output file: " + path);
  out << io::scheduler_to_json(artifact);
  std::printf("exported scheduler artifact (%llu steps x %llu states) to %s\n",
              static_cast<unsigned long long>(artifact.steps),
              static_cast<unsigned long long>(artifact.states), path.c_str());
}

/// Prints the size of a built model and, with @p minimize, replaces it by its
/// branching-bisimulation quotient.
lang::BuiltModel announce_and_minimize(lang::BuiltModel built, bool minimize, Telemetry* tel) {
  std::printf("system: %zu states, %zu interactive + %zu Markov transitions, "
              "uniform rate %.6f (%zu leaves)\n",
              built.system.num_states(), built.system.num_interactive_transitions(),
              built.system.num_markov_transitions(), built.uniform_rate, built.num_leaves);
  if (minimize) {
    built = lang::minimize_model(built, &g_guard, tel);
    std::printf("minimized: %zu states, %zu interactive + %zu Markov transitions\n",
                built.system.num_states(), built.system.num_interactive_transitions(),
                built.system.num_markov_transitions());
  }
  return built;
}

/// Solves proposition @p goal of a built model through the whole pipeline,
/// for the single bound @p t or the --times batch, and prints the report.
/// @p quantity names the single-bound answer ("P(reach goal within 2)").
int solve_built(const lang::BuiltModel& built, const std::string& goal,
                const std::string& quantity, double t, bool minimize_flag, double eps, bool early,
                const std::string& scheduler_path, const GuardFlags& flags,
                const Stopwatch& total) {
  const Objective objective = minimize_flag ? Objective::Minimize : Objective::Maximize;
  const char* const opt_name = minimize_flag ? "inf" : "sup";
  UimcAnalysisOptions options;
  options.reachability.epsilon = eps;
  options.reachability.objective = objective;
  options.reachability.early_termination = early;
  options.reachability.backend = flags.backend;
  options.reachability.truncation = flags.truncation;
  options.reachability.locking = flags.locking;
  options.reachability.guard = &g_guard;
  options.reachability.telemetry = telemetry_of(flags);
  options.reachability.extract_scheduler = !scheduler_path.empty();
  if (!scheduler_path.empty() && early) {
    // Early termination leaves the decision rows below its stop step empty.
    std::fprintf(stderr, "error: --export-scheduler cannot be combined with --early\n");
    std::exit(2);
  }
  if (!flags.times.empty()) {
    if (!scheduler_path.empty()) {
      std::fprintf(stderr, "error: --export-scheduler requires a single time bound\n");
      std::exit(2);
    }
    const auto result =
        analyze_timed_reachability_batch(built.system, built.mask(goal), flags.times, options);
    std::printf("ctmdp: %zu states, %zu transitions\n", result.transformed.ctmdp.num_states(),
                result.transformed.ctmdp.num_transitions());
    std::vector<BoundSummary> bounds;
    for (std::size_t j = 0; j < flags.times.size(); ++j) {
      const auto& r = result.reachability[j];
      bounds.push_back({flags.times[j], result.values[j], r.iterations_planned,
                        r.iterations_executed, r.status, r.residual_bound});
    }
    const int exit_code = report_batch(opt_name, goal, bounds, flags);
    std::printf("%zu bounds in one batch solve, %.3f s total\n", flags.times.size(),
                total.seconds());
    return exit_code;
  }

  const auto result = analyze_timed_reachability(built.system, built.mask(goal), t, options);
  std::printf("ctmdp: %zu states, %zu transitions\n", result.transformed.ctmdp.num_states(),
              result.transformed.ctmdp.num_transitions());
  std::printf("%s %s = %.10f\n", opt_name, quantity.c_str(), result.value);
  std::printf("iterations: %llu planned, %llu executed, %.3f s total\n",
              static_cast<unsigned long long>(result.reachability.iterations_planned),
              static_cast<unsigned long long>(result.reachability.iterations_executed),
              total.seconds());
  report_truncation(result.reachability);
  if (!scheduler_path.empty()) {
    export_scheduler_artifact(scheduler_path, result, objective, t, eps);
  }
  return report_partial(result.reachability.status, result.reachability.residual_bound, flags);
}

/// A time bound as printf's %g renders it.
std::string format_bound(double t) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", t);
  return buffer;
}

int run_model(const std::string& path, double t, const std::string& goal_name, bool minimize_flag,
              bool minimize, double eps, bool early, const std::string& export_prefix,
              const std::string& scheduler_path, const GuardFlags& flags) {
  Stopwatch total;
  Telemetry* const tel = telemetry_of(flags);
  std::optional<Telemetry::Span> parse_span;
  if (tel != nullptr) parse_span.emplace(tel->span("parse"));
  const lang::Model ast = lang::parse_and_check(read_file(path), path);
  parse_span.reset();

  lang::BuildOptions build_options;
  build_options.guard = &g_guard;
  build_options.telemetry = tel;
  const lang::BuiltModel built =
      announce_and_minimize(lang::build_model(ast, build_options), minimize, tel);

  if (!built.has_prop(goal_name)) {
    std::string available;
    for (const std::string& name : built.prop_names) {
      if (!available.empty()) available += ", ";
      available += name;
    }
    throw ModelError("model has no proposition '" + goal_name +
                     "' (available: " + (available.empty() ? "none" : available) + ")");
  }

  if (!export_prefix.empty()) {
    std::ofstream imc_out(export_prefix + ".imc");
    io::write_imc(imc_out, built.system);
    io::LabelMasks labels;
    for (std::size_t p = 0; p < built.prop_names.size(); ++p) {
      labels.emplace_back(built.prop_names[p], built.prop_masks[p]);
    }
    std::ofstream lab_out(export_prefix + ".lab");
    io::write_labels(lab_out, labels);
    std::printf("exported %s.imc and %s.lab\n", export_prefix.c_str(), export_prefix.c_str());
  }
  return solve_built(built, goal_name,
                     "P(reach " + goal_name + " within " + format_bound(t) + ")", t, minimize_flag,
                     eps, early, scheduler_path, flags, total);
}

int run_dft(const std::string& path, double t, bool minimize_flag, bool minimize, double eps,
            bool early, const std::string& scheduler_path, const GuardFlags& flags) {
  Stopwatch total;
  Telemetry* const tel = telemetry_of(flags);
  std::optional<Telemetry::Span> parse_span;
  if (tel != nullptr) parse_span.emplace(tel->span("parse"));
  const dft::CheckedDft checked = dft::parse_and_check_dft(read_file(path), path);
  parse_span.reset();

  dft::LowerOptions lower_options;
  lower_options.guard = &g_guard;
  lower_options.telemetry = tel;
  lang::BuiltModel lowered = dft::lower_dft(checked, lower_options);
  std::printf("dft: %zu elements (%zu basic events), total failure rate %.6f\n",
              checked.ast.elements.size(), static_cast<std::size_t>(checked.num_basic_events),
              checked.total_rate);
  const lang::BuiltModel built = announce_and_minimize(std::move(lowered), minimize, tel);
  return solve_built(built, "failed", "unreliability(" + format_bound(t) + ")", t, minimize_flag,
                     eps, early, scheduler_path, flags, total);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string kind = argv[1];
  GuardFlags flags;

  if (kind == "model" || kind == "dft") {
    if (argc < 4) usage();
    const std::string model_path = argv[2];
    const double t = parse_nonnegative(argv[3], "time bound <t>");
    bool minimize_objective = false, early = false, minimize = true;
    double eps = 1e-6;
    std::string goal_name = "goal", export_prefix, scheduler_path;
    for (int i = 4; i < argc; ++i) {
      if (parse_common_flag(argc, argv, i, flags)) {
        continue;
      } else if (std::strcmp(argv[i], "--min") == 0) {
        minimize_objective = true;
      } else if (std::strcmp(argv[i], "--objective") == 0 && i + 1 < argc) {
        minimize_objective = parse_objective_flag(argv[++i]);
      } else if (std::strcmp(argv[i], "--early") == 0) {
        early = true;
      } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
        minimize = false;
      } else if (std::strcmp(argv[i], "--eps") == 0 && i + 1 < argc) {
        eps = parse_positive(argv[++i], "--eps");
      } else if (kind == "model" && std::strcmp(argv[i], "--goal") == 0 && i + 1 < argc) {
        goal_name = argv[++i];
      } else if (kind == "model" && std::strcmp(argv[i], "--export") == 0 && i + 1 < argc) {
        export_prefix = argv[++i];
      } else if (std::strcmp(argv[i], "--export-scheduler") == 0 && i + 1 < argc) {
        scheduler_path = argv[++i];
      } else {
        usage();
      }
    }
    try {
      const auto accounting = arm_guard(flags);
      const TelemetryFlusher flusher(flags);
      if (kind == "dft") {
        return run_dft(model_path, t, minimize_objective, minimize, eps, early, scheduler_path,
                       flags);
      }
      return run_model(model_path, t, goal_name, minimize_objective, minimize, eps, early,
                       export_prefix, scheduler_path, flags);
    } catch (const Error& e) {
      return report_error(e, flags);
    } catch (const std::bad_alloc&) {
      return report_error(Error(ErrorCode::OutOfMemory, "allocation failure (std::bad_alloc)"),
                          flags);
    } catch (const std::exception& e) {
      return report_error(Error(ErrorCode::Internal, e.what()), flags);
    }
  }

  if (argc < 5) usage();
  const std::string model_path = argv[2];
  const std::string goal_path = argv[3];
  const double t = parse_nonnegative(argv[4], "time bound <t>");

  bool minimize = false, early = false, scheduler = false;
  double eps = 1e-6;
  for (int i = 5; i < argc; ++i) {
    if (parse_common_flag(argc, argv, i, flags)) {
      continue;
    } else if (std::strcmp(argv[i], "--min") == 0) {
      minimize = true;
    } else if (std::strcmp(argv[i], "--objective") == 0 && i + 1 < argc) {
      minimize = parse_objective_flag(argv[++i]);
    } else if (std::strcmp(argv[i], "--early") == 0) {
      early = true;
    } else if (std::strcmp(argv[i], "--scheduler") == 0) {
      scheduler = true;
    } else if (std::strcmp(argv[i], "--eps") == 0 && i + 1 < argc) {
      eps = parse_positive(argv[++i], "--eps");
    } else {
      usage();
    }
  }

  try {
    const auto accounting = arm_guard(flags);
    const TelemetryFlusher flusher(flags);
    if (kind == "ctmdp") {
      const Ctmdp model = io::load_ctmdp(model_path);
      const BitVector goal = load_goal(goal_path, model.num_states());
      TimedReachabilityOptions options;
      options.epsilon = eps;
      options.objective = minimize ? Objective::Minimize : Objective::Maximize;
      options.early_termination = early;
      options.extract_scheduler = scheduler;
      options.backend = flags.backend;
      options.truncation = flags.truncation;
      options.locking = flags.locking;
      options.guard = &g_guard;
      options.telemetry = telemetry_of(flags);
      Stopwatch timer;
      if (!flags.times.empty()) {
        const auto results = timed_reachability_batch(model, goal, flags.times, options);
        std::printf("model: %zu states, %zu transitions, uniform rate %.6f\n",
                    model.num_states(), model.num_transitions(), results.front().uniform_rate);
        std::vector<BoundSummary> bounds;
        for (std::size_t j = 0; j < flags.times.size(); ++j) {
          const auto& r = results[j];
          bounds.push_back({flags.times[j], r.values[model.initial()], r.iterations_planned,
                            r.iterations_executed, r.status, r.residual_bound});
        }
        const int exit_code = report_batch(minimize ? "inf" : "sup", "goal", bounds, flags);
        std::printf("%zu bounds in one batch solve, %.3f s\n", flags.times.size(),
                    timer.seconds());
        return exit_code;
      }
      const auto result = timed_reachability(model, goal, t, options);
      std::printf("model: %zu states, %zu transitions, uniform rate %.6f\n", model.num_states(),
                  model.num_transitions(), result.uniform_rate);
      std::printf("%s P(reach goal within %g) = %.10f\n", minimize ? "inf" : "sup", t,
                  result.values[model.initial()]);
      std::printf("iterations: %llu planned, %llu executed, %.3f s\n",
                  static_cast<unsigned long long>(result.iterations_planned),
                  static_cast<unsigned long long>(result.iterations_executed), timer.seconds());
      report_truncation(result);
      if (scheduler && result.status == RunStatus::Converged) {
        std::printf("optimal first decisions (states with a real choice):\n");
        for (StateId s = 0; s < model.num_states(); ++s) {
          if (model.num_transitions_of(s) < 2) continue;
          const auto choice = result.initial_decision[s];
          if (choice == kNoTransition) continue;
          std::printf("  %u: %s\n", s,
                      model.words().str(model.label(choice), model.actions()).c_str());
        }
      }
      return report_partial(result.status, result.residual_bound, flags);
    } else if (kind == "ctmc") {
      const Ctmc model = io::load_ctmc(model_path);
      const BitVector goal = load_goal(goal_path, model.num_states());
      TransientOptions options;
      options.epsilon = eps;
      options.early_termination = early;
      options.backend = flags.backend;
      options.truncation = flags.truncation;
      options.locking = flags.locking;
      options.guard = &g_guard;
      options.telemetry = telemetry_of(flags);
      Stopwatch timer;
      if (!flags.times.empty()) {
        const auto results = timed_reachability_batch(model, goal, flags.times, options);
        std::printf("model: %zu states, %zu transitions, uniformized at %.6f\n",
                    model.num_states(), model.num_transitions(), results.front().uniform_rate);
        std::vector<BoundSummary> bounds;
        for (std::size_t j = 0; j < flags.times.size(); ++j) {
          const auto& r = results[j];
          bounds.push_back({flags.times[j], r.probabilities[model.initial()], r.iterations,
                            r.iterations_executed, r.status, r.residual_bound});
        }
        const int exit_code = report_batch("", "goal", bounds, flags);
        std::printf("%zu bounds in one batch solve, %.3f s\n", flags.times.size(),
                    timer.seconds());
        return exit_code;
      }
      const auto result = timed_reachability(model, goal, t, options);
      std::printf("model: %zu states, %zu transitions, uniformized at %.6f\n", model.num_states(),
                  model.num_transitions(), result.uniform_rate);
      std::printf("P(reach goal within %g) = %.10f\n", t,
                  result.probabilities[model.initial()]);
      std::printf("iterations: %llu planned, %llu executed, %.3f s\n",
                  static_cast<unsigned long long>(result.iterations),
                  static_cast<unsigned long long>(result.iterations_executed), timer.seconds());
      report_truncation(result);
      return report_partial(result.status, result.residual_bound, flags);
    } else {
      usage();
    }
  } catch (const Error& e) {
    return report_error(e, flags);
  } catch (const std::bad_alloc&) {
    return report_error(Error(ErrorCode::OutOfMemory, "allocation failure (std::bad_alloc)"),
                        flags);
  } catch (const std::exception& e) {
    return report_error(Error(ErrorCode::Internal, e.what()), flags);
  }
  return 0;
}
