// server_mix: an in-process AnalysisService with unicon_serve's defaults
// (2 workers, unbounded cache) under a closed loop that keeps kOutstanding
// queries in flight.  The traced run takes the server counters from the
// timed part and the per-layer seconds from a sequential replay of the
// same queries against ModelCache::resolve and the two batch solvers.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/backend.hpp"
#include "server/service.hpp"
#include "support/errors.hpp"

namespace perfbench {

using unicon::Stopwatch;
using unicon::Telemetry;
using unicon::server::AnalysisService;
using unicon::server::QueryRequest;
using unicon::server::QueryResponse;

namespace {

constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kOutstanding = 4;
constexpr std::size_t kBlocks = 256;  // more than any run submits; wraps if not

const ServerQuery& query_at(const ServerInputs& inputs, std::size_t index) {
  return inputs.queries[index % inputs.queries.size()];
}

QueryRequest make_request(const HotModel& m, const ServerQuery& q, std::string id) {
  QueryRequest request;
  request.client = "bench";
  request.id = std::move(id);
  request.kind = m.kind;
  request.source = m.source;
  request.labels = m.labels;
  request.goal_name = m.goal;
  request.times = q.times;
  request.objective = q.objective;
  request.threads = kThreads;
  return request;
}

std::string describe(const HotModel& m, const std::vector<double>& times, Objective objective) {
  std::string what = m.name + " " + objective_name(objective) + " t=";
  for (std::size_t j = 0; j < times.size(); ++j) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%s%g", j ? "," : "", times[j]);
    what += buffer;
  }
  return what;
}

/// Checks one answered query (one operation) against the references.
void check_answers(Outcome& out, const References& refs, const HotModel& m,
                   const std::vector<double>& times, Objective objective,
                   const std::vector<std::pair<double, unicon::RunStatus>>& answers) {
  const std::string what = describe(m, times, objective);
  if (answers.size() != times.size()) {
    out.fail(what + ": " + std::to_string(answers.size()) + " answers");
    return;
  }
  for (std::size_t j = 0; j < times.size(); ++j) {
    if (!out.check_status(what, answers[j].second) ||
        !out.check(what, answers[j].first, refs.value(m.name, times[j], objective))) {
      return;
    }
  }
}

void check_response(Outcome& out, const References& refs, const HotModel& m,
                    const ServerQuery& q, const QueryResponse& response) {
  ++out.attempted;
  try {
    if (response.error != unicon::ErrorCode::Ok) {
      out.fail(describe(m, q.times, q.objective) + ": error " +
               unicon::error_code_name(response.error) + " " + response.message);
      return;
    }
    std::vector<std::pair<double, unicon::RunStatus>> answers;
    for (const auto& a : response.results) answers.push_back({a.value, a.status});
    check_answers(out, refs, m, q.times, q.objective, answers);
  } catch (const std::exception& e) {
    out.fail(describe(m, q.times, q.objective) + ": " + e.what());
  }
}

/// Starts a service and fills its cache cold: one query per (model,
/// objective), so every lowering and memoized kernel exists before timing.
std::unique_ptr<AnalysisService> start_service(Outcome& out, const References& refs,
                                               const ServerInputs& inputs) {
  unicon::server::ServiceOptions options;
  options.workers = 2;
  auto service = std::make_unique<AnalysisService>(options);
  std::size_t fill = 0;
  for (std::size_t m = 0; m < inputs.models.size(); ++m) {
    for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
      const ServerQuery q{m, {inputs.models[m].grid.front()}, objective};
      check_response(out, refs, inputs.models[m], q,
                     service->query(make_request(inputs.models[m], q,
                                                 "fill" + std::to_string(fill++))));
    }
  }
  return service;
}

/// What the closed loop measured.
struct LiveRun {
  std::vector<double> latency_ms;     // completion order
  std::vector<double> completion_s;   // since the first submit, completion order
  Fastest fastest_ms;                 // per query kind
  std::size_t cache_hits = 0;
};

LiveRun closed_loop(Outcome& out, const References& refs, const ServerInputs& inputs,
                    AnalysisService& service, double seconds) {
  LiveRun live;
  std::mutex mutex;
  std::condition_variable done;
  std::size_t outstanding = 0;
  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();

  for (std::size_t index = 0;; ++index) {
    if (index % inputs.block_size == 0 &&
        std::chrono::duration<double>(clock::now() - start).count() >= seconds) {
      break;
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      done.wait(lock, [&] { return outstanding < kOutstanding; });
      ++outstanding;
    }
    // Pointers into inputs, which outlives every callback.
    const ServerQuery* q = &query_at(inputs, index);
    const HotModel* m = &inputs.models[q->model];
    const clock::time_point submitted = clock::now();
    std::string id = "q";
    id += std::to_string(index);  // not "q" + ...: GCC 12 -Wrestrict false positive
    service.submit(make_request(*m, *q, std::move(id)),
                   [&, q, m, submitted](QueryResponse response) {
      const clock::time_point now = clock::now();
      std::lock_guard<std::mutex> lock(mutex);
      live.latency_ms.push_back(std::chrono::duration<double, std::milli>(now - submitted).count());
      live.completion_s.push_back(std::chrono::duration<double>(now - start).count());
      live.fastest_ms.add(m->name + " " + objective_name(q->objective) + " " +
                              std::to_string(q->times.size()) + " bounds",
                          live.latency_ms.back());
      if (response.cache_hit) ++live.cache_hits;
      check_response(out, refs, *m, *q, response);
      --outstanding;
      done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return outstanding == 0; });
  return live;
}

/// Replays one query sequentially against a warm ModelCache and the batch
/// solver the service would call, each call in a layer span.
void replay_query(Outcome& out, const References& refs, const HotModel& m, const ServerQuery& q,
                  unicon::server::ModelCache& cache, Telemetry* telemetry) {
  ++out.attempted;
  try {
    unicon::server::ModelCache::Resolved resolved;
    {
      LayerSpan span(telemetry, "server.resolve");
      resolved = cache.resolve(m.kind, m.source, m.labels, m.goal);
    }
    const unicon::server::CachedModel& model = *resolved.model;
    std::vector<std::pair<double, unicon::RunStatus>> answers;
    if (model.is_ctmc()) {
      unicon::TransientOptions options;
      options.epsilon = kEpsilon;
      options.threads = kThreads;
      LayerSpan span(telemetry, "ctmc.sweep");
      const auto results = unicon::timed_reachability_batch(
          model.chain(), model.goal_for(q.objective), q.times, options);
      std::uint64_t iterations = 0;
      for (const auto& r : results) {
        iterations = std::max(iterations, r.iterations_executed);
        answers.push_back({r.probabilities[model.chain().initial()], r.status});
      }
      span.metric("iterations", iterations);
    } else {
      unicon::TimedReachabilityOptions options = solver_options(q.objective);
      {
        LayerSpan span(telemetry, "ctmdp.kernel");
        if (unicon::resolve_backend(options.backend) == unicon::Backend::Serial) {
          options.discrete_kernel = &model.discrete_kernel(q.objective);
        } else {
          options.dense_kernel = &model.dense_kernel(q.objective);
        }
      }
      LayerSpan span(telemetry, "ctmdp.batch_sweep");
      const auto results = unicon::timed_reachability_batch(
          model.ctmdp(), model.goal_for(q.objective), q.times, options);
      for (const auto& r : results) answers.push_back({r.values[model.ctmdp().initial()], r.status});
    }
    check_answers(out, refs, m, q.times, q.objective, answers);
  } catch (const std::exception& e) {
    out.fail(describe(m, q.times, q.objective) + ": " + e.what());
  }
}

/// Replays block @p b of the query list, one root span with a registry;
/// returns its wall time.
double replay_block(Outcome& out, const References& refs, const ServerInputs& inputs,
                    unicon::server::ModelCache& cache, Telemetry* telemetry, std::size_t b) {
  Stopwatch watch;
  std::optional<Telemetry::Span> root;
  if (telemetry != nullptr) root.emplace(telemetry->span("bench.pass"));
  for (std::size_t i = 0; i < inputs.block_size; ++i) {
    const ServerQuery& q = query_at(inputs, b * inputs.block_size + i);
    replay_query(out, refs, inputs.models[q.model], q, cache, telemetry);
  }
  root.reset();
  return watch.seconds();
}

}  // namespace

Outcome run_server_mix(const RunConfig& config, const References& refs) {
  Outcome out;
  ServerInputs inputs;
  auto generate = [&] {
    Rng rng(config.seed);
    inputs = make_server_inputs(config.root, rng, kBlocks);
  };
  auto describe_inputs = [&] {
    std::size_t bounds = 0;
    for (std::size_t i = 0; i < inputs.block_size; ++i) bounds += inputs.queries[i].times.size();
    print_inputs(config, serialize(inputs),
                 "\"models\": " + std::to_string(inputs.models.size()) +
                     ", \"block_size\": " + std::to_string(inputs.block_size) +
                     ", \"bounds_per_block\": " + std::to_string(bounds) +
                     ", \"outstanding\": " + std::to_string(kOutstanding));
  };
  if (config.inputs_only) {
    generate();
    describe_inputs();
    return out;
  }

  // Set-up: input generation, service start and cold cache fill.
  std::unique_ptr<AnalysisService> service;
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    service.reset();  // joins the previous service's workers, outside the timing
    Stopwatch watch;
    generate();
    service = start_service(out, refs, inputs);
    setup_times.push_back(watch.seconds());
  }
  describe_inputs();

  // The traced run splits its time between the closed loop (server
  // counters) and the replay (layer seconds).
  const double loop_seconds = config.trace ? config.seconds / 2.0 : config.seconds;
  const unicon::server::ServiceStats before = service->stats();
  const LiveRun live = closed_loop(out, refs, inputs, *service, loop_seconds);
  const unicon::server::ServiceStats after = service->stats();
  service.reset();

  if (!config.trace) {
    // A pass is one block of the query list: the time between the
    // completions that close consecutive blocks.  A block's time also
    // depends on how its queries interleave on the two workers, and the
    // single fastest block stands apart from the rest (0.089 s against
    // 0.10 s for the next), so pass_s is the blocks' 10th percentile.
    std::vector<double> pass_times;
    double previous = 0.0;
    for (std::size_t end = inputs.block_size; end <= live.completion_s.size();
         end += inputs.block_size) {
      pass_times.push_back(live.completion_s[end - 1] - previous);
      previous = live.completion_s[end - 1];
    }
    emit_end_to_end(out, median(setup_times), quantile(pass_times, 0.1), inputs.block_size,
                    live.fastest_ms);
    return out;
  }

  const double completed = static_cast<double>(after.completed - before.completed);
  double latency_sum = 0.0;
  for (const double ms : live.latency_ms) latency_sum += ms;

  // Replay against a cache warmed exactly as the service's was.
  unicon::server::ModelCache cache;
  for (std::size_t m = 0; m < inputs.models.size(); ++m) {
    for (const Objective objective : {Objective::Maximize, Objective::Minimize}) {
      const ServerQuery q{m, {inputs.models[m].grid.front()}, objective};
      replay_query(out, refs, inputs.models[m], q, cache, nullptr);
    }
  }
  Telemetry telemetry;
  const std::vector<double> untraced =
      paired_passes(config.seconds / 2.0, telemetry, [&](std::size_t b, Telemetry* t) {
        return replay_block(out, refs, inputs, cache, t, b);
      });

  const LayerTotals totals = aggregate_spans(telemetry);
  double service_ms = 0.0;  // mean resolve + solve per query in the replay
  for (const auto& [name, seconds] : totals.seconds) service_ms += seconds;
  service_ms *= 1e3 / static_cast<double>(untraced.size() * inputs.block_size);

  std::map<std::string, double> server;
  server["server.queue_wait_ms"] = latency_sum / completed - service_ms;
  server["server.cache_hit_ratio"] = static_cast<double>(live.cache_hits) / completed;
  server["server.coalesced_ratio"] =
      static_cast<double>(after.coalesced - before.coalesced) / completed;
  server["server.batches"] = static_cast<double>(after.batches - before.batches);
  server["server.rejected"] = static_cast<double>(after.rejected - before.rejected);
  server["server.queries"] = completed;
  emit_layer_metrics(out, totals, *std::min_element(untraced.begin(), untraced.end()), server);
  return out;
}

}  // namespace perfbench
