// Measurement helpers: RSS high-water mark, order statistics, and the
// layer spans of the traced run with their aggregation.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "support/json.hpp"

namespace perfbench {

double peak_rss_mb() {
  // VmHWM belongs to this process image.  getrusage's ru_maxrss would also
  // count the image exec replaced: run.py's Python process, which is
  // larger than the small workloads and would hide their growth.  The
  // kernel batches its RSS counters per thread, so VmHWM can read a little
  // lower after memory is freed; the running maximum keeps the mark
  // monotone.  Called from the main thread only.
  static double high_mb = 0.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      high_mb = std::max(high_mb, std::stod(line.substr(6)) / 1024.0);  // kB
      return high_mb;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

LayerSpan::LayerSpan(unicon::Telemetry* telemetry, const char* name) {
  if (telemetry == nullptr) return;
  hwm_before_ = peak_rss_mb();
  span_.emplace(telemetry->span(name));
}

LayerSpan::~LayerSpan() {
  if (span_) span_->metric("rss_growth_mb", peak_rss_mb() - hwm_before_);
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;  // no rotation
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

void Fastest::add(const std::string& kind, double ms) {
  const auto [it, fresh] = best_.emplace(kind, ms);
  if (!fresh && ms < it->second) it->second = ms;
}

std::vector<double> Fastest::values() const {
  std::vector<double> v;
  for (const auto& [kind, ms] : best_) v.push_back(ms);
  return v;
}

double Fastest::sum_ms() const {
  double sum = 0.0;
  for (const auto& [kind, ms] : best_) sum += ms;
  return sum;
}

void emit_end_to_end(Outcome& out, double setup_s, double pass_s, std::size_t queries_per_pass,
                     const Fastest& latency_ms) {
  out.metric("setup_s", setup_s, "s");
  out.metric("pass_s", pass_s, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out.metric("ok_ratio",
             static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
             "ratio");
  out.metric("served_qps", static_cast<double>(queries_per_pass) / pass_s, "1/s");
  out.metric("query_p50_ms", quantile(latency_ms.values(), 0.5), "ms");
  out.metric("query_p90_ms", quantile(latency_ms.values(), 0.9), "ms");
}

std::vector<double> paired_passes(
    double seconds, unicon::Telemetry& telemetry,
    const std::function<double(std::size_t, unicon::Telemetry*)>& pass) {
  std::vector<double> untraced;
  CpuRotation cpus;
  unicon::Stopwatch run;
  do {
    const std::size_t pair = untraced.size();
    cpus.next();
    for (const bool traced : {pair % 2 == 0, pair % 2 != 0}) {
      if (traced) {
        pass(pair, &telemetry);
      } else {
        untraced.push_back(pass(pair, nullptr));
      }
    }
  } while (run.seconds() < seconds);
  return untraced;
}

LayerTotals aggregate_spans(const unicon::Telemetry& telemetry) {
  LayerTotals totals;
  const unicon::Json doc = unicon::Json::parse(telemetry.to_json());
  for (const unicon::Json& pass : doc.find("spans")->as_array()) {
    ++totals.passes;
    totals.pass_seconds.push_back(pass.find("seconds")->as_number());
    for (const unicon::Json& call : pass.find("children")->as_array()) {
      const std::string& name = call.find("name")->as_string();
      const std::string layer = name.substr(0, name.find('.'));
      totals.seconds[name] += call.find("seconds")->as_number();
      ++totals.calls[name];
      for (const auto& [key, value] : call.find("metrics")->as_object()) {
        if (key == "rss_growth_mb") {
          totals.rss_growth[name] += value.as_number();
        } else {
          totals.counts[layer + "." + key] += value.as_number();
        }
      }
    }
  }
  double sum = 0.0;
  for (const double s : totals.pass_seconds) sum += s;
  if (totals.passes > 0) totals.pass_seconds_mean = sum / static_cast<double>(totals.passes);
  return totals;
}

namespace {

/// Layer calls timed by the traced run, in report order.  server.resolve
/// is reported per call in ms, the others per pass in seconds.
constexpr const char* kLayerCalls[] = {
    "ftwc.build",     "imc.uniformity_check", "core.transform", "ctmdp.kernel",
    "ctmdp.sweep",    "lang.parse",           "lang.build",     "dft.parse",
    "dft.lower",      "bisim.minimize",       "ctmdp.batch_sweep", "ctmc.sweep",
    "server.resolve",
};

/// Counts attached to the layer spans, reported per pass.
constexpr const char* kCounts[] = {
    "ftwc.uimc_states",         "core.ctmdp_states",      "core.ctmdp_transitions",
    "core.words_deduplicated",  "ctmdp.iterations_planned", "ctmdp.iterations_executed",
    "ctmdp.row_updates",        "ctmdp.effective_sweeps", "ctmdp.locked_final",
    "lang.product_states",      "dft.product_states",     "bisim.states_out",
    "ctmc.iterations",
};

/// Server counters measured during the timed part of server_mix.
constexpr std::pair<const char*, const char*> kServerMetrics[] = {
    {"server.queue_wait_ms", "ms"}, {"server.cache_hit_ratio", "ratio"},
    {"server.coalesced_ratio", "ratio"}, {"server.batches", "count"},
    {"server.rejected", "count"},  {"server.queries", "count"},
};

template <class Map>
double lookup(const Map& map, const std::string& key) {
  const auto it = map.find(key);
  return it == map.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace

void emit_layer_metrics(Outcome& out, const LayerTotals& totals, double untraced_pass_s,
                        const std::map<std::string, double>& extra) {
  const double passes = static_cast<double>(std::max<std::size_t>(totals.passes, 1));
  double layer_seconds = 0.0;
  for (const char* call : kLayerCalls) {
    const double seconds = lookup(totals.seconds, call);
    layer_seconds += seconds;
    if (std::string(call) == "server.resolve") {
      const double calls = lookup(totals.calls, call);
      out.metric("server.resolve_ms", calls > 0 ? seconds * 1e3 / calls : 0.0, "ms");
    } else {
      out.metric(std::string(call) + "_s", seconds / passes, "s");
    }
  }
  for (const char* call : kLayerCalls) {
    out.metric(std::string(call) + "_rss_growth_mb", lookup(totals.rss_growth, call), "MiB");
  }
  for (const char* count : kCounts) out.metric(count, lookup(totals.counts, count) / passes, "count");
  const double row_updates = lookup(totals.counts, "ctmdp.row_updates");
  out.metric("ctmdp.ns_per_row_update",
             row_updates > 0 ? lookup(totals.seconds, "ctmdp.sweep") * 1e9 / row_updates : 0.0,
             "ns");
  for (const auto& [name, unit] : kServerMetrics) out.metric(name, lookup(extra, name), unit);

  const double traced_pass_s =
      totals.pass_seconds.empty()
          ? 0.0
          : *std::min_element(totals.pass_seconds.begin(), totals.pass_seconds.end());
  out.metric("bench.traced_pass_s", traced_pass_s, "s");
  out.metric("bench.unattributed_s", totals.pass_seconds_mean - layer_seconds / passes, "s");
  out.metric("bench.tracing_overhead_s", traced_pass_s - untraced_pass_s, "s");
}

}  // namespace perfbench
