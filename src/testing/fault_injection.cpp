#include "testing/fault_injection.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <string>

#include "core/analysis.hpp"
#include "ctmdp/reachability.hpp"
#include "io/tra.hpp"
#include "lang/build.hpp"
#include "lang/fuzz.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/run_guard.hpp"
#include "testing/generate.hpp"

namespace unicon::testing {

namespace {

// Independent derive_seed streams per scenario, so adding draws to one
// scenario never shifts another.
constexpr std::uint64_t kStreamModel = 0xfa01;
constexpr std::uint64_t kStreamCancel = 0xfa02;
constexpr std::uint64_t kStreamAlloc = 0xfa03;
constexpr std::uint64_t kStreamPoison = 0xfa04;
constexpr std::uint64_t kStreamPipeline = 0xfa05;
constexpr std::uint64_t kStreamCorrupt = 0xfa06;

struct Ctx {
  std::uint64_t seed = 0;
  const FaultConfig* config = nullptr;
  FaultReport* report = nullptr;
  std::optional<FaultFailure> failure;

  void fail(const std::string& scenario, const std::string& message) {
    if (failure) return;  // keep the first failure per seed
    failure = FaultFailure{seed, scenario, message, {}};
  }
  void check(bool ok, const std::string& scenario, const std::string& message) {
    ++report->checks_run;
    if (!ok) fail(scenario, message);
  }
};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Max |a - b|, NaN-latching (a NaN deviation never compares small).
double max_deviation(const std::vector<double>& a, const std::vector<double>& b) {
  double dev = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (!(d <= dev)) dev = d;
  }
  return dev;
}

/// The guarded test model of a seed: a random uniform CTMDP with a goal
/// mask, plus its unfaulted reference solve.
struct SolveCase {
  Ctmdp model;
  BitVector goal;
  TimedReachabilityOptions options;
  TimedReachabilityResult reference;
};

SolveCase make_solve_case(const Ctx& ctx) {
  Rng rng(derive_seed(ctx.seed, kStreamModel));
  RandomCtmdpConfig model_config;
  model_config.num_states = 8 + rng.next_below(25);
  SolveCase c;
  c.model = random_uniform_ctmdp(rng, model_config);
  c.goal = random_goal(rng, c.model.num_states());
  c.options.epsilon = ctx.config->epsilon;
  c.options.threads = ctx.config->threads;
  c.options.backend = ctx.config->backend;
  // On the serial backend the reference run records the full scheduler
  // artifact so the cancel scenario can assert that a resumed run
  // reconstructs it exactly (pre-interruption decision rows included).
  // Extraction runs the serial rows on every backend, so the simd backends
  // leave it off and keep the dense engine under every fault.
  c.options.extract_scheduler = resolve_backend(ctx.config->backend) == Backend::Serial;
  c.options.objective = rng.next_below(2) == 0 ? Objective::Maximize : Objective::Minimize;
  c.reference = timed_reachability(c.model, c.goal, ctx.config->time, c.options);
  return c;
}

// --- cancel: deterministic mid-iteration cancellation + resume -------------

void run_cancel(Ctx& ctx, const SolveCase& c) {
  const std::uint64_t k = c.reference.iterations_planned;
  if (k == 0) return;
  Rng rng(derive_seed(ctx.seed, kStreamCancel));
  // First poll, a random interior poll, the last poll, and one past the end
  // (which must not fire at all).
  const std::uint64_t points[] = {1, 1 + rng.next_below(k), k, k + 3};
  for (const std::uint64_t p : points) {
    RunGuard guard;
    guard.cancel_after_polls(p);
    TimedReachabilityOptions options = c.options;
    options.guard = &guard;
    TimedReachabilityResult partial;
    try {
      partial = timed_reachability(c.model, c.goal, ctx.config->time, options);
    } catch (const Error& e) {
      ctx.fail("cancel", "typed error from a solver cancellation (partial result expected): " +
                             std::string(e.what()));
      return;
    }
    if (p > k) {
      ctx.check(partial.status == RunStatus::Converged &&
                    bitwise_equal(partial.values, c.reference.values),
                "cancel", "un-triggered cancel plan changed the result");
      continue;
    }
    ++ctx.report->faults_injected;
    ctx.check(partial.status == RunStatus::Cancelled, "cancel",
              "expected Cancelled status at poll " + std::to_string(p) + ", got " +
                  run_status_name(partial.status));
    if (partial.status != RunStatus::Cancelled) continue;
    const double dev = max_deviation(partial.values, c.reference.values);
    ctx.check(dev <= partial.residual_bound + ctx.config->tolerance, "cancel",
              "partial result violates its residual bound: |partial - ref| = " +
                  std::to_string(dev) + " > " + std::to_string(partial.residual_bound));
    // Resume must complete bit-identically to the uninterrupted run.
    TimedReachabilityOptions resume_options = c.options;
    resume_options.resume = &partial;
    const TimedReachabilityResult resumed =
        timed_reachability(c.model, c.goal, ctx.config->time, resume_options);
    ctx.check(resumed.status == RunStatus::Converged &&
                  bitwise_equal(resumed.values, c.reference.values),
              "cancel", "resume from poll " + std::to_string(p) +
                            " is not bit-identical to the uninterrupted run");
    // Regression: the resumed run must merge the partial result's decision
    // table — without the merge, rows recorded before the interruption
    // (steps [start, k)) would come back empty and the extracted scheduler
    // would silently disagree with an uninterrupted run.
    ctx.check(resumed.initial_decision == c.reference.initial_decision, "cancel",
              "resumed initial_decision differs from the uninterrupted run");
    ctx.check(resumed.decisions == c.reference.decisions, "cancel",
              "resumed decision table dropped or altered pre-interruption rows (poll " +
                  std::to_string(p) + ")");
    if (ctx.failure) return;
  }
}

// --- alloc: the Nth heap allocation throws std::bad_alloc ------------------

void run_alloc(Ctx& ctx, const SolveCase& c) {
  Rng rng(derive_seed(ctx.seed, kStreamAlloc));
  // Probe: count the allocations of one accounted (but unfaulted) solve, so
  // the fault points below actually land inside the run.
  RunGuard probe_guard;
  std::uint64_t total_allocs = 0;
  {
    MemoryAccountingScope scope(probe_guard);
    const TimedReachabilityResult probed =
        timed_reachability(c.model, c.goal, ctx.config->time, c.options);
    total_allocs = accounted_allocations();
    ctx.check(bitwise_equal(probed.values, c.reference.values), "alloc",
              "memory accounting alone changed the result");
  }
  if (total_allocs == 0) return;

  for (int round = 0; round < 3; ++round) {
    // ~4/5 of the draws land inside the run; the rest beyond it (clean run).
    const std::uint64_t nth = 1 + rng.next_below(total_allocs + total_allocs / 4 + 1);
    RunGuard guard;
    bool oom = false;
    std::optional<TimedReachabilityResult> completed;
    try {
      MemoryAccountingScope scope(guard);
      arm_allocation_failure(nth);
      completed = timed_reachability(c.model, c.goal, ctx.config->time, c.options);
    } catch (const std::bad_alloc&) {
      oom = true;
    } catch (const Error& e) {
      ctx.fail("alloc", "allocation fault surfaced as " +
                            std::string(error_code_name(e.code())) + ": " + e.what());
      return;
    }
    if (oom) {
      ++ctx.report->faults_injected;
      ++ctx.report->checks_run;  // typed failure is the accepted outcome
    } else {
      ctx.check(completed && bitwise_equal(completed->values, c.reference.values), "alloc",
                "run that dodged allocation fault #" + std::to_string(nth) +
                    " is not bit-identical to the reference");
    }
    if (ctx.failure) return;
  }
}

// --- poison: NaN/Inf written into the live iterate via the checkpoint ------

void run_poison(Ctx& ctx, const SolveCase& c) {
  const std::uint64_t k = c.reference.iterations_planned;
  const std::size_t n = c.model.num_states();
  if (k == 0 || n == 0) return;
  Rng rng(derive_seed(ctx.seed, kStreamPoison));
  const double payloads[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  // A random interior step (poison may wash out if the entry has no backward
  // readers) and the final step (the pre-clamp finiteness scan must always
  // catch that one).
  const std::uint64_t steps[] = {1 + rng.next_below(k), k};
  for (const std::uint64_t step : steps) {
    const double payload = payloads[rng.next_below(3)];
    const std::size_t index = rng.next_below(n);
    RunGuard guard;
    guard.set_checkpoint([&](const RunCheckpoint& cp) {
      if (cp.step == step && index < cp.values.size()) cp.values[index] = payload;
    });
    TimedReachabilityOptions options = c.options;
    options.guard = &guard;
    ++ctx.report->faults_injected;
    try {
      const TimedReachabilityResult poisoned =
          timed_reachability(c.model, c.goal, ctx.config->time, options);
      // No NumericError: only acceptable when the poison provably washed out
      // of an interior step, i.e. the result is bit-identical anyway.
      ctx.check(step < k && bitwise_equal(poisoned.values, c.reference.values), "poison",
                "poisoned iterate (step " + std::to_string(step) + "/" + std::to_string(k) +
                    ") was neither detected nor washed out");
    } catch (const NumericError&) {
      ++ctx.report->checks_run;  // detection is the expected outcome
    } catch (const Error& e) {
      ctx.fail("poison", "poisoned iterate raised " +
                             std::string(error_code_name(e.code())) +
                             " instead of NumericError: " + e.what());
    }
    if (ctx.failure) return;
  }
}

// --- pipeline: cancellation raced against the full lang pipeline -----------

struct PipelineOutcome {
  double value = 0.0;
  RunStatus status = RunStatus::Converged;
  double residual_bound = 0.0;
};

PipelineOutcome run_pipeline_once(const lang::Model& m, const Ctx& ctx, RunGuard* guard) {
  lang::BuildOptions build;
  build.max_states = 200000;
  build.guard = guard;
  const lang::BuiltModel built = lang::build_model(m, build);
  const lang::BuiltModel minimized = lang::minimize_model(built, guard);
  UimcAnalysisOptions analysis;
  analysis.reachability.epsilon = ctx.config->epsilon;
  analysis.reachability.threads = ctx.config->threads;
  analysis.reachability.guard = guard;
  const UimcAnalysisResult r = analyze_timed_reachability(
      minimized.system, minimized.mask("goal"), ctx.config->time, analysis);
  PipelineOutcome out;
  out.value = r.value;
  out.status = r.reachability.status;
  out.residual_bound = r.reachability.residual_bound;
  return out;
}

void run_pipeline(Ctx& ctx) {
  const lang::Model m = lang::random_model(ctx.seed);
  const PipelineOutcome reference = run_pipeline_once(m, ctx, nullptr);

  // Probe with an idle guard: counts the polls of a full pipeline run and
  // doubles as a "guard presence changes nothing" check.
  RunGuard probe;
  const PipelineOutcome probed = run_pipeline_once(m, ctx, &probe);
  const std::uint64_t total_polls = probe.polls();
  ctx.check(probed.value == reference.value && probed.status == RunStatus::Converged,
            "pipeline", "idle guard changed the pipeline result");
  if (total_polls == 0) return;

  Rng rng(derive_seed(ctx.seed, kStreamPipeline));
  const std::uint64_t p = 1 + rng.next_below(total_polls);
  RunGuard guard;
  guard.cancel_after_polls(p);
  ++ctx.report->faults_injected;
  try {
    const PipelineOutcome faulted = run_pipeline_once(m, ctx, &guard);
    // The cancel fired inside the solver: a sound partial value is required.
    ctx.check(faulted.status == RunStatus::Cancelled &&
                  std::abs(faulted.value - reference.value) <=
                      faulted.residual_bound + ctx.config->tolerance,
              "pipeline",
              "cancel at poll " + std::to_string(p) + "/" + std::to_string(total_polls) +
                  " produced neither a typed error nor a sound partial result (status " +
                  run_status_name(faulted.status) + ")");
  } catch (const BudgetError& e) {
    // The cancel fired inside a structural stage.
    ctx.check(e.code() == ErrorCode::Cancelled, "pipeline",
              "structural cancel carried code " + std::string(error_code_name(e.code())));
  } catch (const Error& e) {
    ctx.fail("pipeline", "cancel surfaced as " + std::string(error_code_name(e.code())) +
                             ": " + e.what());
  }
}

// --- corrupt: truncated / bit-flipped model files --------------------------

std::string corrupt(std::string text, Rng& rng) {
  if (text.empty()) return text;
  switch (rng.next_below(3)) {
    case 0:  // truncate
      text.resize(rng.next_below(text.size()));
      return text;
    case 1: {  // flip one bit
      const std::size_t pos = rng.next_below(text.size());
      text[pos] = static_cast<char>(text[pos] ^ (1u << rng.next_below(8)));
      return text;
    }
    default: {  // overwrite one byte
      const std::size_t pos = rng.next_below(text.size());
      text[pos] = static_cast<char>(rng.next_below(256));
      return text;
    }
  }
}

std::vector<std::string> write_corrupt_artifact(const Ctx& ctx, const std::string& format,
                                                const std::string& text) {
  if (ctx.config->artifact_dir.empty()) return {};
  namespace fs = std::filesystem;
  fs::create_directories(ctx.config->artifact_dir);
  const std::string path = ctx.config->artifact_dir + "/seed-" + std::to_string(ctx.seed) +
                           "-corrupt." + format;
  std::ofstream out(path, std::ios::binary);
  out << text;
  return {path};
}

void run_corrupt(Ctx& ctx) {
  Rng rng(derive_seed(ctx.seed, kStreamCorrupt));

  // Pristine serialized inputs, one per reader.
  RandomCtmcConfig ctmc_config;
  std::stringstream ctmc_text;
  io::write_ctmc(ctmc_text, random_ctmc(rng, ctmc_config));
  std::stringstream imc_text;
  io::write_imc(imc_text, random_uniform_imc(rng));
  std::stringstream ctmdp_text;
  io::write_ctmdp(ctmdp_text, random_uniform_ctmdp(rng));
  std::stringstream lab_text;
  io::write_goal(lab_text, random_goal(rng, 12));
  const std::string uni_text = lang::print_model(lang::random_model(ctx.seed));

  struct Target {
    const char* format;
    std::string text;
  };
  const Target targets[] = {{"tra", ctmc_text.str()},
                            {"imc", imc_text.str()},
                            {"ctmdp", ctmdp_text.str()},
                            {"lab", lab_text.str()},
                            {"uni", uni_text}};

  for (const Target& target : targets) {
    for (int round = 0; round < 4; ++round) {
      const std::string mutated = corrupt(target.text, rng);
      ++ctx.report->faults_injected;
      const std::string scenario = std::string("corrupt-") + target.format;
      try {
        std::stringstream in(mutated);
        if (std::strcmp(target.format, "tra") == 0) {
          io::read_ctmc(in);
        } else if (std::strcmp(target.format, "imc") == 0) {
          io::read_imc(in);
        } else if (std::strcmp(target.format, "ctmdp") == 0) {
          io::read_ctmdp(in);
        } else if (std::strcmp(target.format, "lab") == 0) {
          io::read_labels(in, 12);
        } else {
          const lang::Model m = lang::parse_and_check(mutated, "<fault>");
          lang::BuildOptions build;
          build.max_states = 50000;
          lang::build_model(m, build);
        }
        ++ctx.report->checks_run;  // parsing a mutant cleanly is acceptable
      } catch (const Error&) {
        ++ctx.report->checks_run;  // typed rejection is the expected outcome
      } catch (const std::exception& e) {
        ctx.fail(scenario, std::string("untyped exception: ") + e.what());
        ctx.failure->artifacts = write_corrupt_artifact(ctx, target.format, mutated);
        return;
      }
    }
  }
}

}  // namespace

FaultReport run_fault_injection(const FaultConfig& config, const FaultLogFn& log) {
  FaultReport report;
  for (std::uint64_t i = 0; i < config.num_seeds; ++i) {
    Ctx ctx;
    ctx.seed = config.base_seed + i;
    ctx.config = &config;
    ctx.report = &report;
    ++report.seeds_run;
    try {
      const SolveCase c = make_solve_case(ctx);
      run_cancel(ctx, c);
      if (!ctx.failure) run_alloc(ctx, c);
      if (!ctx.failure) run_poison(ctx, c);
      if (!ctx.failure) run_pipeline(ctx);
      if (!ctx.failure) run_corrupt(ctx);
    } catch (const std::exception& e) {
      ctx.fail("setup", std::string("unexpected exception: ") + e.what());
    }
    if (ctx.failure) {
      if (log) {
        log("fault seed " + std::to_string(ctx.seed) + ": FAIL [" + ctx.failure->scenario +
            "] " + ctx.failure->message);
      }
      report.failures.push_back(std::move(*ctx.failure));
    } else if (log) {
      log("fault seed " + std::to_string(ctx.seed) + ": ok");
    }
  }
  return report;
}

}  // namespace unicon::testing
