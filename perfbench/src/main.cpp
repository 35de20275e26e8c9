// unicon_perfbench — the pipeline benchmark binary (perfbench/README.md).
//
//   unicon_perfbench --workload W --seed N --seconds S --trace 0|1
//                    [--root DIR] [--source-id ID]
//   unicon_perfbench --workload W --seed N --inputs [--dump]
//   unicon_perfbench --make-reference PATH [--root DIR]
//
// A run prints a provenance line, an inputs line (content hash and
// structural counts of the seeded inputs) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}.  perfbench/run.py builds
// this binary and is the documented entry point.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "support/backend.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "unicon_perfbench: %s\n"
               "usage: unicon_perfbench --workload W --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--source-id ID]\n"
               "       unicon_perfbench --workload W --seed N --inputs [--dump] [--root DIR]\n"
               "       unicon_perfbench --make-reference PATH [--root DIR]\n"
               "workloads: ftwc_structural ftwc_long_horizon model_text server_mix\n",
               message);
  std::exit(2);
}

void print_provenance(const RunConfig& config, const std::string& source_id) {
  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"nproc\": %ld, \"simd_uses_avx2\": %s, "
              "\"default_backend\": \"%s\", \"solver_threads\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"source_id\": \"%s\"}}\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              unicon::simd_uses_avx2() ? "true" : "false",
              unicon::backend_name(unicon::resolve_backend(unicon::Backend::Auto)), kThreads,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, source_id.c_str());
}

void print_result(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, metric] = out.metrics[i];
    if (!std::isfinite(metric.first)) {
      std::fprintf(stderr, "unicon_perfbench: metric %s is not finite\n", name.c_str());
      std::exit(1);
    }
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", metric.first);
    line += (i ? ", \"" : "\"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string source_id = "unknown";
  std::string reference_out;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
        have_seconds = config.seconds > 0.0;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        config.trace = v == "1";
        have_trace = true;
      } else if (arg == "--root") {
        config.root = value();
      } else if (arg == "--source-id") {
        source_id = value();
      } else if (arg == "--inputs") {
        config.inputs_only = true;
      } else if (arg == "--dump") {
        config.dump_inputs = true;
      } else if (arg == "--make-reference") {
        reference_out = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }

  // Either variable silently changes what is measured: UNICON_BACKEND
  // re-resolves Backend::Auto, FTWC_FULL switches harness sweeps to paper
  // scale.  Refuse rather than report numbers of another configuration.
  for (const char* var : {"UNICON_BACKEND", "FTWC_FULL"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "unicon_perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }

  try {
    if (!reference_out.empty()) {
      make_references(config, reference_out);
      return 0;
    }
    const bool known = config.workload == "ftwc_structural" ||
                       config.workload == "ftwc_long_horizon" ||
                       config.workload == "model_text" || config.workload == "server_mix";
    if (!known) usage(("unknown workload '" + config.workload + "'").c_str());
    if (!have_seed) usage("--seed is required");
    if (!config.inputs_only && (!have_seconds || !have_trace)) {
      usage("--seconds (> 0) and --trace are required");
    }

    const References refs =
        References::load(config.root + "/perfbench/reference/answers.txt");
    if (!config.inputs_only) print_provenance(config, source_id);
    Outcome out;
    if (config.workload == "ftwc_structural" || config.workload == "ftwc_long_horizon") {
      out = run_ftwc(config, refs, config.workload == "ftwc_long_horizon");
    } else if (config.workload == "model_text") {
      out = run_model_text(config, refs);
    } else {
      out = run_server_mix(config, refs);
    }
    if (config.inputs_only) return 0;
    if (out.attempted == 0) {
      std::fprintf(stderr, "unicon_perfbench: no operation was attempted\n");
      return 1;
    }
    print_result(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unicon_perfbench: %s\n", e.what());
    return 1;
  }
}
