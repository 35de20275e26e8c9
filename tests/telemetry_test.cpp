#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/transform.hpp"
#include "ctmdp/reachability.hpp"
#include "dft/lower.hpp"
#include "dft/sema.hpp"
#include "lang/build.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace unicon {
namespace {

// ----------------------------------------------------------- instruments

TEST(TelemetryCounter, ConcurrentIncrementsFromWorkerPool) {
  Telemetry telemetry;
  Counter& shared = telemetry.counter("shared");
  // Per-worker handles resolved up front, as the solvers do.
  WorkerPool pool = make_worker_pool(0, 1u << 16);
  std::vector<Counter*> per_worker;
  for (unsigned w = 0; w < pool.size(); ++w) {
    per_worker.push_back(&telemetry.counter("worker" + std::to_string(w)));
  }
  constexpr std::size_t kItems = 1u << 16;
  pool.run(kItems, [&](unsigned worker, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) shared.add();
    per_worker[worker]->add(end - begin);
  });
  EXPECT_EQ(shared.value(), kItems);
  std::uint64_t total = 0;
  for (const Counter* c : per_worker) total += c->value();
  EXPECT_EQ(total, kItems);
}

TEST(TelemetryCounter, HandleIsAddressStable) {
  Telemetry telemetry;
  Counter& a = telemetry.counter("a");
  // Creating many more instruments must not move the first.
  for (int i = 0; i < 100; ++i) telemetry.counter(std::string("c").append(std::to_string(i)));
  EXPECT_EQ(&a, &telemetry.counter("a"));
}

TEST(TelemetryGauge, SetAndMonotoneMax) {
  Telemetry telemetry;
  Gauge& g = telemetry.gauge("g");
  g.set(3.0);
  g.set_max(1.0);  // lower: no effect
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.set(2.0);  // plain set may lower
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(TelemetryHistogram, Log2Buckets) {
  Telemetry telemetry;
  Histogram& h = telemetry.histogram("h");
  EXPECT_EQ(h.min(), ~0ull);  // empty sentinel
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket(0), 1u);   // sample 0
  EXPECT_EQ(h.bucket(1), 1u);   // sample 1
  EXPECT_EQ(h.bucket(2), 2u);   // samples 2, 3
  EXPECT_EQ(h.bucket(10), 1u);  // 1000 in [512, 1024)
}

// ----------------------------------------------------------------- spans

/// Collapses the run-dependent seconds so span JSON can be golden-tested.
std::string canonical_seconds(const std::string& json) {
  static const std::regex seconds("\"seconds\": [0-9.]+");
  return std::regex_replace(json, seconds, "\"seconds\": T");
}

TEST(TelemetrySpan, NestingFollowsOpenOrder) {
  Telemetry telemetry;
  {
    Telemetry::Span outer = telemetry.span("outer");
    {
      Telemetry::Span inner = telemetry.span("inner");
      inner.metric("k", 42);
    }
    Telemetry::Span sibling = telemetry.span("sibling");
  }
  Telemetry::Span root2 = telemetry.span("root2");
  root2.close();

  const std::string expected =
      "{\n"
      "  \"schema\": \"unicon-telemetry-v1\",\n"
      "  \"spans\": [\n"
      "    {\"name\": \"outer\", \"seconds\": T, \"open\": false, \"metrics\": {}, "
      "\"children\": [\n"
      "      {\"name\": \"inner\", \"seconds\": T, \"open\": false, \"metrics\": {\"k\": 42}, "
      "\"children\": []},\n"
      "      {\"name\": \"sibling\", \"seconds\": T, \"open\": false, \"metrics\": {}, "
      "\"children\": []}\n"
      "    ]},\n"
      "    {\"name\": \"root2\", \"seconds\": T, \"open\": false, \"metrics\": {}, "
      "\"children\": []}\n"
      "  ],\n"
      "  \"counters\": {},\n"
      "  \"gauges\": {},\n"
      "  \"histograms\": {}\n"
      "}\n";
  EXPECT_EQ(canonical_seconds(telemetry.to_json()), expected);
}

TEST(TelemetrySpan, StillOpenSpansExportPartialTree) {
  // The budget-trip story: flushing with spans still open must emit them
  // with "open": true and their elapsed-so-far time.
  Telemetry telemetry;
  Telemetry::Span stage = telemetry.span("stage");
  const std::string json = telemetry.to_json();
  EXPECT_NE(json.find("\"name\": \"stage\", \"seconds\": "), std::string::npos);
  EXPECT_NE(json.find("\"open\": true"), std::string::npos);
  stage.close();
  EXPECT_EQ(telemetry.to_json().find("\"open\": true"), std::string::npos);
}

TEST(TelemetrySpan, CloseIsIdempotentAndMoveTransfersOwnership) {
  Telemetry telemetry;
  Telemetry::Span a = telemetry.span("a");
  Telemetry::Span b = std::move(a);
  b.close();
  b.close();  // second close: no-op
  a.close();  // moved-from: no-op
  const std::string json = telemetry.to_json();
  // Exactly one "a" span, closed.
  EXPECT_EQ(json.find("\"name\": \"a\""), json.rfind("\"name\": \"a\""));
  EXPECT_EQ(json.find("\"open\": true"), std::string::npos);
}

TEST(TelemetrySpan, ExceptionUnwindingClosesSpans) {
  Telemetry telemetry;
  try {
    Telemetry::Span stage = telemetry.span("doomed");
    throw std::runtime_error("budget tripped");
  } catch (const std::runtime_error&) {
  }
  Telemetry::Span next = telemetry.span("next");  // sibling, not a child
  next.close();
  const std::string json = canonical_seconds(telemetry.to_json());
  EXPECT_NE(
      json.find("{\"name\": \"doomed\", \"seconds\": T, \"open\": false, \"metrics\": {}, "
                "\"children\": []},"),
      std::string::npos);
  EXPECT_EQ(json.find("\"open\": true"), std::string::npos);
}

// ------------------------------------------------------------ JSON schema

TEST(TelemetryJson, GoldenSchemaAcrossAllSections) {
  Telemetry telemetry;
  {
    Telemetry::Span stage = telemetry.span("stage");
    stage.metric("states", std::size_t{7});
    stage.metric("rate", 1.5);
  }
  telemetry.counter("events").add(3);
  telemetry.gauge("level").set(0.25);
  telemetry.histogram("sizes").observe(5);

  const std::string expected =
      "{\n"
      "  \"schema\": \"unicon-telemetry-v1\",\n"
      "  \"spans\": [\n"
      "    {\"name\": \"stage\", \"seconds\": T, \"open\": false, "
      "\"metrics\": {\"states\": 7, \"rate\": 1.5}, \"children\": []}\n"
      "  ],\n"
      "  \"counters\": {\n"
      "    \"events\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"level\": 0.25\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"sizes\": {\"count\": 1, \"sum\": 5, \"min\": 5, \"max\": 5, "
      "\"buckets\": [{\"bucket\": 3, \"count\": 1}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(canonical_seconds(telemetry.to_json()), expected);
}

TEST(TelemetryJson, InstrumentsSortedByName) {
  Telemetry telemetry;
  telemetry.counter("zeta").add(1);
  telemetry.counter("alpha").add(2);
  const std::string json = telemetry.to_json();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
}

TEST(TelemetryJson, EscapesMetricAndSpanNames) {
  Telemetry telemetry;
  telemetry.counter("quote\"backslash\\").add(1);
  const std::string json = telemetry.to_json();
  EXPECT_NE(json.find("\"quote\\\"backslash\\\\\": 1"), std::string::npos);
  EXPECT_EQ(telemetry::json_escape("a\nb\tc\x01"), "a\\nb\\tc\\u0001");
}

TEST(TelemetryBench, RecordRendersIntegersAsIntegers) {
  telemetry::BenchRecord r;
  r.bench = "suite/case";
  r.add("states", std::size_t{12}).add("seconds", 0.125).add("k", std::uint64_t{9});
  ASSERT_EQ(r.metrics.size(), 3u);
  EXPECT_EQ(r.metrics[0].second, "12");
  EXPECT_EQ(r.metrics[1].second, "0.125000");
  EXPECT_EQ(r.metrics[2].second, "9");
}

// ------------------------------------------------------- BENCH file merge

/// A BENCH path under the test temp directory, absent on entry and removed
/// on exit.
class BenchPath {
 public:
  explicit BenchPath(const char* name) : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~BenchPath() { std::remove(path_.c_str()); }
  const std::string& str() const { return path_; }

  std::string text() const {
    std::ifstream in(path_);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }
  std::vector<std::string> labels() const {
    const Json doc = Json::parse(text());
    std::vector<std::string> out;
    for (const Json& r : doc.as_array()) out.push_back(r.get_string("bench", ""));
    return out;
  }

 private:
  std::string path_;
};

void write_bench(const std::string& path, const std::string& label, double seconds) {
  telemetry::BenchJson json(path);
  telemetry::BenchRecord r;
  r.bench = label;
  r.add("states", std::size_t{12}).add("seconds", seconds);
  json.record(std::move(r));
}

TEST(TelemetryBench, TwoWritersToOneFileKeepBothSetsOfRecords) {
  const BenchPath path("unicon_bench_two_writers.json");
  write_bench(path.str(), "table1/N=1", 0.125);
  write_bench(path.str(), "micro/algorithm1", 0.25);
  EXPECT_EQ(path.labels(), (std::vector<std::string>{"table1/N=1", "micro/algorithm1"}));
  // A kept record keeps its keys, their order and their values.
  EXPECT_NE(path.text().find("{\"bench\": \"table1/N=1\", \"states\": 12, \"seconds\": 0.125}"),
            std::string::npos)
      << path.text();
  EXPECT_FALSE(std::filesystem::exists(path.str() + ".tmp"));
}

TEST(TelemetryBench, ALabelWrittenAgainReplacesItsRecord) {
  const BenchPath path("unicon_bench_rewrite.json");
  {
    telemetry::BenchJson json(path.str());
    for (const char* label : {"a", "b"}) {
      telemetry::BenchRecord r;
      r.bench = label;
      r.add("seconds", 1.0);
      json.record(std::move(r));
    }
  }
  write_bench(path.str(), "a", 3.5);
  EXPECT_EQ(path.labels(), (std::vector<std::string>{"b", "a"}));
  const Json records = Json::parse(path.text());
  EXPECT_EQ(records.as_array()[1].get_number("seconds", 0.0), 3.5);
}

TEST(TelemetryBench, MalformedExistingFileIsReportedAndReplaced) {
  for (const char* existing : {"not json", "[{\"seconds\": 1}]", "{\"bench\": \"x\"}"}) {
    SCOPED_TRACE(existing);
    const BenchPath path("unicon_bench_malformed.json");
    std::ofstream(path.str()) << existing;
    ::testing::internal::CaptureStderr();
    write_bench(path.str(), "fresh", 0.5);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(path.str()), std::string::npos) << err;
    EXPECT_EQ(path.labels(), (std::vector<std::string>{"fresh"}));
  }
}

// ------------------------------------------------------ per-stage memory

/// Finds the first span named @p name anywhere in a span list.
const Json* find_span(const JsonArray& spans, const std::string& name) {
  for (const Json& span : spans) {
    if (span.get_string("name", "") == name) return &span;
    if (const Json* children = span.find("children")) {
      if (const Json* found = find_span(children->as_array(), name)) return found;
    }
  }
  return nullptr;
}

/// Composition and minimization report their working memory: the explorer's
/// tuple arena plus state table, and the largest signature pool of any
/// refinement round.
TEST(TelemetryStageMemory, ComposeAndBisimReportBytesOnCas) {
  std::ifstream in(std::string(UNICON_DFT_DIR) + "/cas.dft");
  std::ostringstream source;
  source << in.rdbuf();
  Telemetry telemetry;
  dft::LowerOptions lower;
  lower.telemetry = &telemetry;
  const lang::BuiltModel built =
      dft::lower_dft(dft::parse_and_check_dft(source.str(), "cas.dft"), lower);
  lang::minimize_model(built, nullptr, &telemetry);

  const Json json = Json::parse(telemetry.to_json());
  const JsonArray& spans = json.find("spans")->as_array();
  const Json* compose = find_span(spans, "compose");
  const Json* bisim = find_span(spans, "bisim");
  ASSERT_NE(compose, nullptr);
  ASSERT_NE(bisim, nullptr);
  const Json& compose_metrics = *compose->find("metrics");
  const Json& bisim_metrics = *bisim->find("metrics");
  ASSERT_NE(compose_metrics.find("arena_bytes"), nullptr);
  ASSERT_NE(bisim_metrics.find("signature_bytes"), nullptr);
  // The arena alone holds one leaf state per leaf per product state.
  const double states = compose_metrics.get_number("states", 0);
  const double leaves = compose_metrics.get_number("leaves", 0);
  EXPECT_EQ(states, 3976);
  EXPECT_GE(compose_metrics.get_number("arena_bytes", 0), states * leaves * sizeof(StateId));
  EXPECT_GT(bisim_metrics.get_number("signature_bytes", 0), 0);
}

// ----------------------------------------------------------- determinism

/// Algorithm 1 must be bit-identical with telemetry on/off and across
/// thread counts — the registry only observes.
TEST(TelemetryDeterminism, SolverBitIdenticalOnOffAndAcrossThreads) {
  Rng rng(7);
  testutil::RandomImcConfig config;
  config.num_states = 40;
  const Imc m = testutil::random_uniform_imc(rng, config);
  const BitVector imc_goal = testutil::random_goal(rng, m.num_states());
  const auto transformed = transform_to_ctmdp(m, &imc_goal);

  TimedReachabilityOptions base;
  base.threads = 1;
  // The rows-per-sweep accounting below is the serial engine's (states *
  // sweeps; the dense SIMD backend sweeps only non-goal rows), so the
  // backend is fixed rather than inherited from UNICON_BACKEND.
  base.backend = Backend::Serial;
  const auto reference = timed_reachability(transformed.ctmdp, transformed.goal, 2.5, base);

  for (unsigned threads : {1u, 0u}) {
    Telemetry telemetry;
    TimedReachabilityOptions options;
    options.threads = threads;
    options.backend = Backend::Serial;
    options.telemetry = &telemetry;
    const auto observed = timed_reachability(transformed.ctmdp, transformed.goal, 2.5, options);
    ASSERT_EQ(observed.values.size(), reference.values.size());
    EXPECT_EQ(std::memcmp(observed.values.data(), reference.values.data(),
                          reference.values.size() * sizeof(double)),
              0)
        << "threads=" << threads;
    // The observation itself must be there: a closed span with the solver
    // metrics and one row counter per worker summing to states * sweeps.
    const std::string json = telemetry.to_json();
    EXPECT_NE(json.find("\"name\": \"reachability\""), std::string::npos);
    EXPECT_NE(json.find("\"iterations_executed\": "), std::string::npos);
    std::uint64_t rows = 0;
    const unsigned workers = resolve_threads(threads);
    for (unsigned w = 0; w < workers; ++w) {
      rows += telemetry.counter("reachability.rows.worker" + std::to_string(w)).value();
    }
    EXPECT_EQ(rows, static_cast<std::uint64_t>(transformed.ctmdp.num_states()) *
                        observed.iterations_executed);
  }
}

}  // namespace
}  // namespace unicon
