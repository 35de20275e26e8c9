// Shared declarations of the pipeline benchmark (perfbench/README.md).
//
// The benchmark drives the library through the same public entry points
// unicon_check and unicon_serve use.  A run is one workload at one seed:
// the seed picks inputs from fixed grids (so one reference table serves
// every seed), the timed part repeats passes for the requested seconds,
// and every answer is checked against perfbench/reference/answers.txt.
#pragma once

#include <sched.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ctmdp/reachability.hpp"
#include "server/model_cache.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

using unicon::Objective;

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Checkout root: examples/ and perfbench/reference/ are read from here.
  std::string root = ".";
  /// Generate and describe the inputs, run nothing (the seed test).
  bool inputs_only = false;
  /// With inputs_only: also print the serialized inputs.
  bool dump_inputs = false;
};

/// Every solve of the benchmark uses the library defaults (backend Auto,
/// truncation Auto, locking on, epsilon 1e-6) except a single worker
/// thread, the server's default.  Answers may be off by at most
/// kEpsilon + 1e-9 from the reference.
inline constexpr double kEpsilon = 1e-6;
inline constexpr double kTolerance = kEpsilon + 1e-9;
inline constexpr unsigned kThreads = 1;

/// FTWC sizes and time grids (hours) the seed draws from: N = 8 around
/// 100 h for the structural workload (k ~ 300 sweeps), N = 4 around 1500 h
/// for the long-horizon one (k ~ 3,300 sweeps).  kTable1Sizes are the
/// sizes whose Table 1 counts a structural run checks, untimed, after its
/// timed passes.
inline constexpr unsigned kStructuralN = 8;
inline constexpr unsigned kLongHorizonN = 4;
inline constexpr unsigned kTable1Sizes[] = {16, 64};
inline const std::vector<double> kStructuralGrid = {98, 99, 100, 101, 102};
inline const std::vector<double> kLongHorizonGrid = {1470, 1485, 1500, 1515, 1530};

inline unicon::TimedReachabilityOptions solver_options(Objective objective) {
  unicon::TimedReachabilityOptions options;
  options.objective = objective;
  options.threads = kThreads;
  return options;
}

/// splitmix64: the same stream on every platform, unlike the
/// implementation-defined std distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

const char* objective_name(Objective objective);

/// Reference answers (ε = 1e-10, serial backend) and exact structural
/// counts, keyed by value_key() / count name.
struct References {
  std::map<std::string, double> values;
  std::map<std::string, std::uint64_t> counts;

  static References load(const std::string& path);
  /// Throws std::runtime_error when the grid point has no reference.
  double value(const std::string& model, double t, Objective objective) const;
  std::uint64_t count(const std::string& name) const;
  void write(const std::string& path) const;
};

std::string value_key(const std::string& model, double t, Objective objective);

/// Result of one run: the contract fields plus the metrics to print.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Counts one failed operation and reports it on stderr.
  void fail(const std::string& what);

  // Checks of one answer.  Each returns false after counting a failure,
  // so a chain of them counts a query as one failed operation at most.

  /// Off by more than kTolerance from @p expected fails.
  bool check(const std::string& what, double value, double expected);
  /// Any status but Converged fails.
  bool check_status(const std::string& what, unicon::RunStatus status);
  /// A structural count differing from its pin in @p refs fails.
  bool check_count(const References& refs, const std::string& name, std::size_t value);
};

// --- generated inputs (inputs.cpp) -----------------------------------------

/// The UNI FTWC in the style of bench/lang_frontend: @p workstations units
/// alternately in the left and right sub-cluster, goal = !all_up.
std::string generated_ftwc_uni(unsigned workstations);
/// A 10-basic-event Galileo tree extending examples/dft/cas.dft.
std::string generated_dft();

/// model_text's generated models (reference keys; their sizes are pinned).
inline constexpr unsigned kGeneratedWorkstations = 4;
inline const std::string kGeneratedUni = "gen_ftwc4.uni";
inline const std::string kGeneratedDft = "gen_dft10.dft";

/// One text-to-answer query of model_text (unicon_check model|dft).
struct TextQuery {
  std::string name;  ///< file name or generated-model name (reference key)
  bool dft = false;
  const std::string* source = nullptr;  ///< owned by TextInputs
  std::string goal;                     ///< UNI proposition ("failed" for DFTs)
  double t = 0.0;
  Objective objective = Objective::Maximize;
  double expected = 0.0;
};

struct TextInputs {
  std::map<std::string, std::string> sources;  ///< name -> model text
  std::vector<TextQuery> smoke;                 ///< every SMOKE line
  std::vector<double> uni_grid, dft_grid;       ///< time grids of the generated models
  /// The pass schedule: passes[p] lists the queries of pass p.
  std::vector<std::vector<TextQuery>> passes;
};

/// Reads both SMOKE files and the files they name, generates the two large
/// models and draws @p passes pass schedules from @p rng.
TextInputs make_text_inputs(const std::string& root, const References& refs, Rng& rng,
                            std::size_t passes);

/// The hot set of server_mix.
struct HotModel {
  std::string name;
  unicon::server::ModelKind kind = unicon::server::ModelKind::Uni;
  std::string source;
  std::string labels;
  std::string goal = "goal";
  std::vector<double> grid;  ///< time bounds the queries draw from
};

struct ServerQuery {
  std::size_t model = 0;
  std::vector<double> times;
  Objective objective = Objective::Maximize;
};

struct ServerInputs {
  std::vector<HotModel> models;
  /// Queries in submission order, whole blocks of block_size.
  std::vector<ServerQuery> queries;
  std::size_t block_size = 0;
};

ServerInputs make_server_inputs(const std::string& root, Rng& rng, std::size_t blocks);

/// Canonical byte serialization of a workload's generated inputs (what
/// the content hash covers and what the seed test compares).
std::string serialize(const TextInputs& inputs);
std::string serialize(const ServerInputs& inputs);

std::string read_file(const std::string& path);

/// Prints the inputs line: content hash and structural counts (a JSON
/// object body) of the serialized inputs @p bytes, preceded by the bytes
/// themselves when config.dump_inputs is set.
void print_inputs(const RunConfig& config, const std::string& bytes, const std::string& counts);

// --- measurement helpers (trace.cpp) -----------------------------------------

/// Process RSS high-water mark in MiB.
double peak_rss_mb();

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Span around one layer call of a traced pass: records the call's
/// seconds and the growth of the RSS high-water mark across it.  A null
/// registry makes it a no-op (the untraced path).
class LayerSpan {
 public:
  LayerSpan(unicon::Telemetry* telemetry, const char* name);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  template <class T>
  void metric(const char* key, T value) {
    if (span_) span_->metric(key, value);
  }

 private:
  std::optional<unicon::Telemetry::Span> span_;
  double hwm_before_ = 0.0;
};

/// Fastest latency (ms) a run saw per query kind.  A kind is one model
/// and goal asked the same way (objective and number of time bounds) in
/// every pass or block; the seed draws its time bounds from a grid, which
/// changes its work by a few percent at most.
class Fastest {
 public:
  void add(const std::string& kind, double ms);
  std::vector<double> values() const;
  double sum_ms() const;

 private:
  std::map<std::string, double> best_;
};

/// The end-to-end metrics of a timed run.  The host's neighbours slow it
/// down in bursts, and that noise only ever adds time, so every timing is
/// the fastest repetition of a fixed unit of work: @p pass_s is the
/// fastest pass (offline: the sum over the pass's query kinds of each
/// kind's fastest time; server_mix: the 10th percentile of its blocks),
/// served_qps is @p queries_per_pass per pass_s, and query_p50_ms /
/// query_p90_ms are percentiles over the kinds in @p latency_ms of each
/// kind's fastest latency.  setup_s is the median
/// of the run's set-ups; peak_rss_mb the process high-water mark; ok_ratio
/// the share of operations that passed their checks.
void emit_end_to_end(Outcome& out, double setup_s, double pass_s, std::size_t queries_per_pass,
                     const Fastest& latency_ms);

/// Moves the calling thread across the CPUs the process may use, one CPU
/// per next(), and restores the original mask when destroyed.  The host's
/// neighbours slow each CPU down in bursts of their own, so passes taken
/// in turn on every CPU all get the same chance of a burst-free one.
/// Threads inherit the mask they are created under: create none between
/// next() and the destructor.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// The pass loop of a traced run: pairs of one traced and one untraced run
/// of pass i — pass(i, &telemetry) and pass(i, nullptr) — until @p seconds
/// have elapsed (at least one pair), each pair on the next CPU of a
/// CpuRotation.  The order flips from pair to pair, so
/// drift within the run and any warm-up the second pass of a pair gets
/// cancel out of the tracing overhead.  @p pass returns its wall time;
/// returns the untraced times, one per pair.
std::vector<double> paired_passes(
    double seconds, unicon::Telemetry& telemetry,
    const std::function<double(std::size_t, unicon::Telemetry*)>& pass);

/// Per-layer metrics of a traced run, aggregated from the registry's
/// unicon-telemetry-v1 export: every root span is one pass, every child a
/// layer call.  Time and counts are reported per pass (mean over passes),
/// RSS growth summed over the run.
struct LayerTotals {
  std::size_t passes = 0;
  double pass_seconds_mean = 0.0;
  std::vector<double> pass_seconds;
  std::map<std::string, double> seconds;     ///< span name -> summed seconds
  std::map<std::string, double> rss_growth;  ///< span name -> summed MiB
  std::map<std::string, double> calls;       ///< span name -> number of calls
  std::map<std::string, double> counts;      ///< "<layer>.<metric>" -> summed value
};

LayerTotals aggregate_spans(const unicon::Telemetry& telemetry);

/// Emits every per-layer metric of BENCHMARK.json (zero for layers the
/// workload never calls) plus bench.traced_pass_s, bench.unattributed_s
/// and bench.tracing_overhead_s.
void emit_layer_metrics(Outcome& out, const LayerTotals& totals, double untraced_pass_s,
                        const std::map<std::string, double>& extra);

// --- workloads ------------------------------------------------------------------

Outcome run_ftwc(const RunConfig& config, const References& refs, bool long_horizon);
Outcome run_model_text(const RunConfig& config, const References& refs);
Outcome run_server_mix(const RunConfig& config, const References& refs);

/// Recomputes every reference answer on the serial backend at ε = 1e-10
/// and pins the structural counts.
void make_references(const RunConfig& config, const std::string& path);

}  // namespace perfbench
