// Analysis service and JSONL session layer: correctness under concurrency.
//
// The stress tests run many client threads against one service with mixed
// models, mid-flight cancellations and fault plans, with zero tolerance for
// a crash, a hang (gtest TIMEOUT), a wrong answer (bitwise comparison
// against direct solves) or cross-request bleed (per-request telemetry
// registries, per-model canonical hashes).  The deterministic tests pin
// fair-share ordering, coalescing, admission control and the session
// protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "io/tra.hpp"
#include "support/json.hpp"
#include "server/model_cache.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "testing/generate.hpp"

namespace unicon {
namespace {

namespace gen = unicon::testing;
using server::AnalysisService;
using unicon::Json;
using unicon::JsonArray;
using server::ModelKind;
using server::QueryRequest;
using server::QueryResponse;
using server::ServiceOptions;
using server::ServiceStats;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::string serialize_ctmdp(const Ctmdp& model) {
  std::ostringstream out;
  io::write_ctmdp(out, model);
  return out.str();
}

std::string serialize_ctmc(const Ctmc& chain) {
  std::ostringstream out;
  io::write_ctmc(out, chain);
  return out.str();
}

std::string serialize_goal(const BitVector& goal) {
  std::ostringstream out;
  io::write_goal(out, goal);
  return out.str();
}

/// One test model with its expected per-horizon answers precomputed by a
/// direct (cache-free, service-free) solve.
struct Fixture {
  ModelKind kind = ModelKind::CtmdpFile;
  std::string source;
  std::string labels;
  std::vector<double> times;
  Objective objective = Objective::Maximize;
  std::vector<double> expected;  ///< value at the initial state per time
};

Fixture make_ctmdp_fixture(std::uint64_t seed, std::size_t num_states,
                           std::vector<double> times, Objective objective) {
  Rng rng(seed);
  gen::RandomCtmdpConfig config;
  config.num_states = num_states;
  const Ctmdp model = gen::random_uniform_ctmdp(rng, config);
  const BitVector goal = gen::random_goal(rng, model.num_states(), 0.3);

  Fixture fixture;
  fixture.kind = ModelKind::CtmdpFile;
  fixture.source = serialize_ctmdp(model);
  fixture.labels = serialize_goal(goal);
  fixture.times = std::move(times);
  fixture.objective = objective;
  TimedReachabilityOptions options;
  options.objective = objective;
  options.backend = Backend::Serial;
  for (const double t : fixture.times) {
    fixture.expected.push_back(
        timed_reachability(model, goal, t, options).values[model.initial()]);
  }
  return fixture;
}

Fixture make_ctmc_fixture(std::uint64_t seed, std::size_t num_states,
                          std::vector<double> times) {
  Rng rng(seed);
  gen::RandomCtmcConfig config;
  config.num_states = num_states;
  const Ctmc chain = gen::random_ctmc(rng, config);
  const BitVector goal = gen::random_goal(rng, chain.num_states(), 0.3);

  Fixture fixture;
  fixture.kind = ModelKind::CtmcFile;
  fixture.source = serialize_ctmc(chain);
  fixture.labels = serialize_goal(goal);
  fixture.times = std::move(times);
  TransientOptions options;
  options.backend = Backend::Serial;
  for (const double t : fixture.times) {
    fixture.expected.push_back(
        timed_reachability(chain, goal, t, options).probabilities[chain.initial()]);
  }
  return fixture;
}

QueryRequest request_for(const Fixture& fixture, std::string client, std::string id) {
  QueryRequest request;
  request.client = std::move(client);
  request.id = std::move(id);
  request.kind = fixture.kind;
  request.source = fixture.source;
  request.labels = fixture.labels;
  request.times = fixture.times;
  request.objective = fixture.objective;
  request.backend = Backend::Serial;
  return request;
}

void expect_matches_fixture(const QueryResponse& response, const Fixture& fixture) {
  ASSERT_EQ(response.error, ErrorCode::Ok) << response.message;
  ASSERT_EQ(response.results.size(), fixture.expected.size());
  for (std::size_t j = 0; j < fixture.expected.size(); ++j) {
    EXPECT_EQ(bits(response.results[j].value), bits(fixture.expected[j]))
        << "horizon " << j << ": " << response.results[j].value << " vs "
        << fixture.expected[j];
    EXPECT_EQ(response.results[j].status, RunStatus::Converged);
  }
}

/// A request sized to occupy a worker for >= ~100 ms, used to pin queue
/// contents deterministically while other requests are submitted.  Tests
/// build their fixtures before submitting it: a fixture's reference solve
/// running beside the blocker could let the blocker finish before the
/// riders are queued.
QueryRequest make_blocker(std::string client, std::string id) {
  Rng rng(0xb10cce5u);
  gen::RandomCtmdpConfig config;
  config.num_states = 600;
  config.uniform_rate = 3.0;
  const Ctmdp model = gen::random_uniform_ctmdp(rng, config);
  const BitVector goal = gen::random_goal(rng, model.num_states(), 0.1);

  QueryRequest request;
  request.client = std::move(client);
  request.id = std::move(id);
  request.kind = ModelKind::CtmdpFile;
  request.source = serialize_ctmdp(model);
  request.labels = serialize_goal(goal);
  request.times = {400.0, 401.0, 402.0, 403.0};
  request.epsilon = 1e-12;
  request.backend = Backend::Serial;
  return request;
}

/// Polls until the service has dispatched @p batches groups (the blocker is
/// running, the queue is otherwise empty).
void wait_for_batches(AnalysisService& service, std::uint64_t batches) {
  for (int i = 0; i < 20000; ++i) {
    if (service.stats().batches >= batches) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "service never dispatched batch " << batches;
}

TEST(ServerTest, QueryMatchesDirectSolveBitwise) {
  const Fixture sup = make_ctmdp_fixture(11, 24, {0.5, 1.5, 3.0}, Objective::Maximize);
  const Fixture inf = make_ctmdp_fixture(11, 24, {0.5, 1.5, 3.0}, Objective::Minimize);
  const Fixture ctmc = make_ctmc_fixture(12, 18, {0.25, 2.0});

  AnalysisService service(ServiceOptions{.workers = 2});
  expect_matches_fixture(service.query(request_for(sup, "a", "1")), sup);
  expect_matches_fixture(service.query(request_for(inf, "a", "2")), inf);
  expect_matches_fixture(service.query(request_for(ctmc, "a", "3")), ctmc);

  // sup and inf share the lowered model (one entry, two kernel memos).
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cache.entries, 2u);
  EXPECT_GE(stats.cache.source_hits, 1u);
}

TEST(ServerTest, ConcurrentStressMixedModelsCancellationsAndFaults) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kQueriesPerClient = 12;

  const std::vector<Fixture> fixtures = {
      make_ctmdp_fixture(21, 20, {0.5, 1.0}, Objective::Maximize),
      make_ctmdp_fixture(22, 26, {1.5}, Objective::Minimize),
      make_ctmdp_fixture(23, 32, {0.75, 2.0, 4.0}, Objective::Maximize),
      make_ctmc_fixture(24, 22, {0.5, 1.25}),
  };

  AnalysisService service(ServiceOptions{.workers = 4, .max_pending = 4096});

  std::mutex mutex;
  std::map<std::string, std::vector<std::string>> hashes_by_fixture;
  std::atomic<std::uint64_t> ok_answers{0};
  std::atomic<std::uint64_t> cancelled_answers{0};
  std::atomic<std::uint64_t> fault_stops{0};
  std::atomic<bool> wrong{false};

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string client = "client-" + std::to_string(c);
      for (std::size_t q = 0; q < kQueriesPerClient; ++q) {
        const Fixture& fixture = fixtures[(c + q) % fixtures.size()];
        const std::string id = std::to_string(q);
        QueryRequest request = request_for(fixture, client, id);
        Telemetry telemetry;
        request.telemetry = &telemetry;

        // Mode per query: plain / fault plan / submit-then-cancel.
        const int mode = static_cast<int>((c * 31 + q) % 5);
        if (mode == 3) request.cancel_after_polls = 1;

        QueryResponse response;
        if (mode == 4) {
          std::promise<void> done;
          service.submit(std::move(request), [&](QueryResponse r) {
            response = std::move(r);
            done.set_value();
          });
          service.cancel(client, id);  // may race completion: both are legal
          done.get_future().wait();
        } else {
          response = service.query(std::move(request));
        }

        if (response.error == ErrorCode::Cancelled) {
          ++cancelled_answers;
        } else if (response.error == ErrorCode::Ok) {
          ++ok_answers;
          if (response.results.size() != fixture.expected.size()) {
            wrong = true;
            continue;
          }
          for (std::size_t j = 0; j < fixture.expected.size(); ++j) {
            if (response.results[j].status == RunStatus::Cancelled) {
              // Fault-plan stop: partial result, never a wrong value.
              ++fault_stops;
            } else if (bits(response.results[j].value) != bits(fixture.expected[j])) {
              wrong = true;
            }
          }
          std::lock_guard<std::mutex> lock(mutex);
          hashes_by_fixture[fixture.source].push_back(response.model_hash);
        } else {
          wrong = true;
        }

        // Telemetry isolation: this request's registry observed at most its
        // own serve.query span (none if cancelled while queued), never a
        // co-running request's.
        const std::string json = telemetry.to_json();
        std::size_t spans = 0;
        for (std::size_t pos = json.find("serve.query"); pos != std::string::npos;
             pos = json.find("serve.query", pos + 1)) {
          ++spans;
        }
        if (response.error == ErrorCode::Ok ? spans != 1 : spans > 1) wrong = true;
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_FALSE(wrong.load()) << "a response carried a wrong answer or bled telemetry";
  EXPECT_GT(ok_answers.load(), 0u);

  // Cache bleed check: every response for one fixture reported the same
  // canonical hash, and distinct fixtures never shared one.
  std::vector<std::string> distinct;
  for (const auto& [source, hashes] : hashes_by_fixture) {
    for (const std::string& hash : hashes) EXPECT_EQ(hash, hashes.front());
    distinct.push_back(hashes.front());
  }
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    for (std::size_t j = i + 1; j < distinct.size(); ++j) {
      EXPECT_NE(distinct[i], distinct[j]);
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.completed, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.cache.entries, 4u);
}

TEST(ServerTest, CancelQueuedJobsAnswersImmediately) {
  AnalysisService service(ServiceOptions{.workers = 1});

  const Fixture fixture = make_ctmdp_fixture(31, 16, {1.0}, Objective::Maximize);
  std::promise<void> blocker_done;
  service.submit(make_blocker("zz", "blocker"),
                 [&](QueryResponse) { blocker_done.set_value(); });
  wait_for_batches(service, 1);

  std::vector<std::future<QueryResponse>> answers;
  std::vector<std::shared_ptr<std::promise<QueryResponse>>> promises;
  for (int i = 0; i < 5; ++i) {
    auto promise = std::make_shared<std::promise<QueryResponse>>();
    answers.push_back(promise->get_future());
    promises.push_back(promise);
    service.submit(request_for(fixture, "a", std::to_string(i)),
                   [promise](QueryResponse r) { promise->set_value(std::move(r)); });
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(service.cancel("a", std::to_string(i)));
  }
  for (auto& answer : answers) {
    const QueryResponse response = answer.get();
    EXPECT_EQ(response.error, ErrorCode::Cancelled);
    EXPECT_TRUE(response.results.empty());
  }
  EXPECT_FALSE(service.cancel("a", "0"));        // already answered
  EXPECT_FALSE(service.cancel("a", "nosuch"));   // never submitted
  EXPECT_GE(service.stats().cancelled, 5u);
  blocker_done.get_future().wait();
}

TEST(ServerTest, CoalescingAnswersEveryMemberBitwiseIdentically) {
  AnalysisService service(ServiceOptions{.workers = 1, .max_batch = 16});

  const Fixture fixture = make_ctmdp_fixture(41, 28, {0.5, 1.5}, Objective::Maximize);
  std::promise<void> blocker_done;
  service.submit(make_blocker("zz", "blocker"),
                 [&](QueryResponse) { blocker_done.set_value(); });
  wait_for_batches(service, 1);

  // Four clients, identical query -> one solve key -> one batch group.
  constexpr std::size_t kMembers = 4;
  std::vector<std::future<QueryResponse>> answers;
  for (std::size_t m = 0; m < kMembers; ++m) {
    auto promise = std::make_shared<std::promise<QueryResponse>>();
    answers.push_back(promise->get_future());
    service.submit(request_for(fixture, "client-" + std::to_string(m), "q"),
                   [promise](QueryResponse r) { promise->set_value(std::move(r)); });
  }
  for (auto& answer : answers) {
    const QueryResponse response = answer.get();
    EXPECT_EQ(response.batched_with, kMembers);
    expect_matches_fixture(response, fixture);
  }
  blocker_done.get_future().wait();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);  // blocker + the coalesced group
  EXPECT_EQ(stats.coalesced, kMembers - 1);
}

TEST(ServerTest, FaultPlansNeverCoalesceAndDeadlinesStopTheirOwnSolve) {
  AnalysisService service(ServiceOptions{.workers = 1});

  // cancel_after_polls stops the guarded solve; the answer is a sound
  // partial result, not an error, and rode in its own group.
  const Fixture fixture = make_ctmdp_fixture(51, 40, {50.0}, Objective::Maximize);
  QueryRequest faulty = request_for(fixture, "a", "fault");
  faulty.cancel_after_polls = 1;
  const QueryResponse response = service.query(std::move(faulty));
  ASSERT_EQ(response.error, ErrorCode::Ok) << response.message;
  EXPECT_EQ(response.batched_with, 1u);
  ASSERT_EQ(response.results.size(), 1u);
  EXPECT_EQ(response.results[0].status, RunStatus::Cancelled);
  EXPECT_LT(response.results[0].iterations_executed, response.results[0].iterations_planned);

  QueryRequest deadline = request_for(fixture, "a", "deadline");
  deadline.deadline = 1e-9;
  const QueryResponse late = service.query(std::move(deadline));
  // The lowering may already trip the deadline (typed error) or the solve
  // stops with a partial — both are sound; a full result is impossible.
  if (late.error == ErrorCode::Ok) {
    ASSERT_EQ(late.results.size(), 1u);
    EXPECT_EQ(late.results[0].status, RunStatus::DeadlineExceeded);
  } else {
    EXPECT_EQ(late.error, ErrorCode::Deadline);
  }
}

TEST(ServerTest, FairShareAlternatesAcrossClients) {
  AnalysisService service(ServiceOptions{.workers = 1});

  const Fixture fixture = make_ctmdp_fixture(61, 14, {1.0}, Objective::Maximize);
  std::promise<void> blocker_done;
  service.submit(make_blocker("zz", "blocker"),
                 [&](QueryResponse) { blocker_done.set_value(); });
  wait_for_batches(service, 1);

  // Client a floods 3 jobs before client b's 3; with per-client buckets the
  // dispatch order must still alternate a, b, a, b, a, b.  Distinct epsilon
  // per job keeps the solve keys distinct (no coalescing).
  std::mutex mutex;
  std::vector<std::string> order;
  std::vector<std::future<void>> done;
  for (const char* client : {"a", "a", "a", "b", "b", "b"}) {
    QueryRequest request = request_for(fixture, client, "q" + std::to_string(done.size()));
    request.epsilon = 1e-6 * static_cast<double>(done.size() + 1);
    auto promise = std::make_shared<std::promise<void>>();
    done.push_back(promise->get_future());
    const std::string tag = client;
    service.submit(std::move(request), [&, tag, promise](QueryResponse r) {
      EXPECT_EQ(r.error, ErrorCode::Ok);
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(tag);
      promise->set_value();
    });
  }
  for (auto& d : done) d.wait();
  blocker_done.get_future().wait();
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
}

TEST(ServerTest, AdmissionControlRejectsWithOverloaded) {
  AnalysisService service(ServiceOptions{.workers = 1, .max_pending = 2});

  const Fixture fixture = make_ctmdp_fixture(71, 14, {1.0}, Objective::Maximize);
  std::promise<void> blocker_done;
  service.submit(make_blocker("zz", "blocker"),
                 [&](QueryResponse) { blocker_done.set_value(); });
  wait_for_batches(service, 1);

  std::vector<std::future<QueryResponse>> queued;
  for (int i = 0; i < 2; ++i) {
    auto promise = std::make_shared<std::promise<QueryResponse>>();
    queued.push_back(promise->get_future());
    QueryRequest request = request_for(fixture, "a", std::to_string(i));
    request.epsilon = 1e-6 * (i + 1);  // distinct keys: no coalescing
    service.submit(std::move(request),
                   [promise](QueryResponse r) { promise->set_value(std::move(r)); });
  }

  // Queue is full: the next submit is rejected inline with the stable code.
  QueryResponse rejected;
  bool inline_answer = false;
  service.submit(request_for(fixture, "a", "over"), [&](QueryResponse r) {
    rejected = std::move(r);
    inline_answer = true;
  });
  ASSERT_TRUE(inline_answer);
  EXPECT_EQ(rejected.error, ErrorCode::Overloaded);
  EXPECT_EQ(static_cast<int>(rejected.error), 24);

  for (auto& q : queued) EXPECT_EQ(q.get().error, ErrorCode::Ok);
  blocker_done.get_future().wait();
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(ServerTest, ErrorsComeBackTyped) {
  AnalysisService service(ServiceOptions{.workers = 1});

  QueryRequest bad;
  bad.client = "a";
  bad.id = "parse";
  bad.kind = ModelKind::Uni;
  bad.source = "component C {";  // unterminated
  bad.times = {1.0};
  const QueryResponse response = service.query(std::move(bad));
  EXPECT_EQ(response.error, ErrorCode::Parse);
  EXPECT_FALSE(response.message.empty());
  EXPECT_TRUE(response.results.empty());
}

TEST(ServerTest, DftQueriesResolveThroughTheCache) {
  AnalysisService service(ServiceOptions{.workers = 1});
  const std::string tree =
      "toplevel \"top\";\n"
      "\"top\" pand \"a\" \"b\";\n"
      "\"a\" lambda=1.0;\n\"b\" lambda=1.0;\n\"t\" lambda=5.0;\n"
      "\"dep\" fdep \"t\" \"a\" \"b\";\n";

  const auto ask = [&](const std::string& id, Objective objective, const std::string& source) {
    QueryRequest query;
    query.client = "a";
    query.id = id;
    query.kind = ModelKind::Dft;
    query.source = source;
    query.times = {1.0};
    query.objective = objective;
    query.backend = Backend::Serial;
    return service.query(std::move(query));
  };

  const QueryResponse sup = ask("sup", Objective::Maximize, tree);
  ASSERT_EQ(sup.error, ErrorCode::Ok);
  EXPECT_FALSE(sup.cache_hit);

  // Same tree, different spelling: the canonical Galileo print dedups it
  // onto the first entry.
  const QueryResponse again =
      ask("again", Objective::Maximize, "// respelled\n" + tree);
  ASSERT_EQ(again.error, ErrorCode::Ok);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.model_hash, sup.model_hash);
  EXPECT_EQ(bits(again.results[0].value), bits(sup.results[0].value));

  // The fdep/pand race makes the scheduler matter: inf < sup, and the
  // min objective rides the universal goal transfer of the same entry.
  const QueryResponse inf = ask("inf", Objective::Minimize, tree);
  ASSERT_EQ(inf.error, ErrorCode::Ok);
  EXPECT_TRUE(inf.cache_hit);
  EXPECT_LT(inf.results[0].value + 0.5, sup.results[0].value);

  QueryRequest bad;
  bad.client = "a";
  bad.id = "bad";
  bad.kind = ModelKind::Dft;
  bad.source = "toplevel \"top\";\n\"top\" and \"a\" \"top\";\n\"a\" lambda=1.0;\n";
  bad.times = {1.0};
  const QueryResponse cyclic = service.query(std::move(bad));
  EXPECT_EQ(cyclic.error, ErrorCode::Parse);
}

// ---------------------------------------------------------------------------
// Session layer: the JSONL protocol over in-process streams.

std::vector<Json> run_jsonl(AnalysisService& service, const std::string& input,
                            bool allow_fault_plans = false) {
  std::istringstream in(input);
  std::ostringstream out;
  server::SessionOptions options;
  options.client = "test";
  options.timing = false;
  options.allow_fault_plans = allow_fault_plans;
  server::run_session(in, out, service, options);
  std::vector<Json> lines;
  std::istringstream parse(out.str());
  std::string line;
  while (std::getline(parse, line)) lines.push_back(Json::parse(line));
  // Every session opens with the protocol hello line; validate and strip
  // it so the callers' line counts stay about the actual responses.
  if (!lines.empty()) {
    EXPECT_EQ(lines.front().get_string("hello", ""), "unicon-serve");
    EXPECT_EQ(lines.front().get_number("version", 0.0), 1.0);
    lines.erase(lines.begin());
  }
  return lines;
}

TEST(SessionTest, QueryStatsShutdownRoundTrip) {
  const Fixture fixture = make_ctmdp_fixture(81, 16, {0.5, 1.0}, Objective::Maximize);
  AnalysisService service(ServiceOptions{.workers = 1});

  Json model;
  model.set("kind", "ctmdp");
  model.set("source", fixture.source);
  model.set("labels", fixture.labels);
  Json query;
  query.set("id", "q1");
  query.set("op", "query");
  query.set("model", std::move(model));
  JsonArray times;
  for (const double t : fixture.times) times.push_back(Json(t));
  query.set("times", Json(std::move(times)));
  query.set("backend", "serial");

  Json stats;
  stats.set("id", "s1");
  stats.set("op", "stats");
  Json bye;
  bye.set("id", "b1");
  bye.set("op", "shutdown");

  const std::string input = query.dump() + "\n" + stats.dump() + "\n" + bye.dump() + "\n";
  const std::vector<Json> lines = run_jsonl(service, input);
  ASSERT_EQ(lines.size(), 3u);

  EXPECT_EQ(lines[0].get_string("id", ""), "q1");
  EXPECT_EQ(lines[0].get_number("version", 0.0), 1.0);
  EXPECT_TRUE(lines[0].get_bool("ok", false));
  const Json* results = lines[0].find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->as_array().size(), fixture.expected.size());
  for (std::size_t j = 0; j < fixture.expected.size(); ++j) {
    EXPECT_EQ(bits(results->as_array()[j].get_number("value", -1.0)),
              bits(fixture.expected[j]));
  }
  EXPECT_EQ(lines[0].get_number("seconds", -1.0), 0.0);  // --no-timing pinned

  EXPECT_TRUE(lines[1].get_bool("ok", false));
  ASSERT_NE(lines[1].find("stats"), nullptr);
  EXPECT_TRUE(lines[2].get_bool("bye", false));
}

TEST(SessionTest, MalformedAndUnknownInputsAnswerWithErrorObjects) {
  AnalysisService service(ServiceOptions{.workers = 1});
  const std::vector<Json> lines = run_jsonl(
      service,
      "this is not json\n"
      "{\"id\":\"x\",\"op\":\"nope\"}\n"
      "{\"id\":\"y\",\"op\":\"query\"}\n"
      "{\"id\":\"c\",\"op\":\"cancel\",\"target\":\"nosuch\"}\n");
  ASSERT_EQ(lines.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(lines[i].get_bool("ok", true));
    const Json* error = lines[i].find("error");
    ASSERT_NE(error, nullptr) << "line " << i;
    EXPECT_EQ(error->get_string("code", ""), "parse");
    EXPECT_EQ(error->get_number("exit", 0.0), 13.0);
  }
  EXPECT_TRUE(lines[3].get_bool("ok", false));
  EXPECT_FALSE(lines[3].get_bool("cancelled", true));
}

TEST(SessionTest, FaultPlanFieldsRequireTheServerOptIn) {
  const Fixture fixture = make_ctmdp_fixture(83, 12, {0.5}, Objective::Maximize);
  Json model;
  model.set("kind", "ctmdp");
  model.set("source", fixture.source);
  model.set("labels", fixture.labels);
  Json query;
  query.set("id", "f1");
  query.set("op", "query");
  query.set("model", std::move(model));
  JsonArray times;
  times.push_back(Json(0.5));
  query.set("times", Json(std::move(times)));
  query.set("fault_throw", true);
  const std::string input = query.dump() + "\n";

  // Default session: an untrusted client's fault plan is refused outright
  // with a diagnostic naming the gate — it must never reach the service.
  {
    AnalysisService service(ServiceOptions{.workers = 1});
    const std::vector<Json> lines = run_jsonl(service, input);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_FALSE(lines[0].get_bool("ok", true));
    const Json* error = lines[0].find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->get_string("code", ""), "parse");
    EXPECT_NE(error->get_string("message", "").find("fault plans are disabled"),
              std::string::npos);
    EXPECT_EQ(service.stats().submitted, 0u);
  }

  // Opted-in session (unicon_serve --enable-fault-plans): the same request
  // is admitted and the injected worker fault answers typed Internal.
  {
    AnalysisService service(ServiceOptions{.workers = 1});
    const std::vector<Json> lines = run_jsonl(service, input, /*allow_fault_plans=*/true);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_FALSE(lines[0].get_bool("ok", true));
    const Json* error = lines[0].find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->get_string("code", ""), "internal");
    EXPECT_NE(error->get_string("message", "").find("fault plan"), std::string::npos);
  }
}

TEST(SessionTest, SessionOutputIsDeterministic) {
  const Fixture fixture = make_ctmdp_fixture(91, 20, {0.5, 2.0}, Objective::Maximize);
  Json model;
  model.set("kind", "ctmdp");
  model.set("source", fixture.source);
  model.set("labels", fixture.labels);
  Json query;
  query.set("id", "q");
  query.set("op", "query");
  query.set("model", std::move(model));
  JsonArray times;
  for (const double t : fixture.times) times.push_back(Json(t));
  query.set("times", Json(std::move(times)));
  query.set("backend", "serial");
  const std::string input = query.dump() + "\n";

  // Byte-identical replay across sessions AND across fresh services (the
  // golden-replay CI job depends on exactly this property).
  std::string first;
  for (int round = 0; round < 2; ++round) {
    AnalysisService service(ServiceOptions{.workers = 1});
    std::istringstream in(input);
    std::ostringstream out;
    server::SessionOptions options;
    options.timing = false;
    server::run_session(in, out, service, options);
    if (round == 0) {
      first = out.str();
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(out.str(), first);
    }
  }
}

TEST(ServerTest, PoisonPlanReachesTheSolveAndIsAnsweredNumeric) {
  // Every server solve is a batch, and every horizon of a batch publishes
  // its checkpoints, so a poison plan lands in a live iterate — CTMDP and
  // CTMC alike — and the request is answered with a typed Numeric error.
  const std::vector<Fixture> fixtures = {
      make_ctmdp_fixture(71, 14, {1.0}, Objective::Maximize),
      make_ctmdp_fixture(72, 14, {1.0, 2.0}, Objective::Minimize),
      make_ctmc_fixture(73, 12, {1.0, 2.0}),
  };
  AnalysisService service(ServiceOptions{.workers = 1});
  for (const Fixture& fixture : fixtures) {
    QueryRequest poisoned = request_for(fixture, "chaos", "poison");
    poisoned.fault_poison_step = 1;
    const QueryResponse response = service.query(std::move(poisoned));
    EXPECT_EQ(response.error, ErrorCode::Numeric) << response.message;
    // The damage stays in its own request.
    expect_matches_fixture(service.query(request_for(fixture, "a", "clean")), fixture);
  }
}

TEST(ServerTest, AllocFaultNeverFailsAConcurrentCleanRequest) {
  const Fixture fixture = make_ctmdp_fixture(87, 14, {0.8}, Objective::Maximize);
  AnalysisService service(ServiceOptions{.workers = 2});

  // A clean, allocation-heavy solve occupies the other worker for the
  // whole faulted stream below.
  std::promise<QueryResponse> clean_promise;
  auto clean_future = clean_promise.get_future();
  service.submit(make_blocker("clean", "blocker"),
                 [&](QueryResponse r) { clean_promise.set_value(std::move(r)); });
  wait_for_batches(service, 1);

  // Each faulted request is answered for itself — typed OutOfMemory, or Ok
  // when the armed Nth lies beyond its own allocations.  The injected
  // bad_alloc must never land on the clean request's thread, even though
  // that thread allocates continuously while the fault is armed.
  for (int i = 0; i < 20; ++i) {
    QueryRequest faulted = request_for(fixture, "chaos", "f" + std::to_string(i));
    faulted.fault_alloc_nth = 1 + static_cast<std::uint64_t>(i) * 7;
    const QueryResponse r = service.query(std::move(faulted));
    EXPECT_TRUE(r.error == ErrorCode::OutOfMemory || r.error == ErrorCode::Ok)
        << "faulted request " << i << ": " << r.message;
  }

  const QueryResponse clean = clean_future.get();
  ASSERT_EQ(clean.error, ErrorCode::Ok) << clean.message;
  for (const server::HorizonAnswer& h : clean.results) {
    EXPECT_EQ(h.status, RunStatus::Converged);
  }
}

TEST(ServerTest, OverloadedResponsesCarryABoundedRetryHint) {
  AnalysisService service(ServiceOptions{.workers = 1, .max_pending = 2});

  const Fixture fixture = make_ctmdp_fixture(97, 14, {1.0}, Objective::Maximize);
  std::promise<void> blocker_done;
  service.submit(make_blocker("zz", "blocker"),
                 [&](QueryResponse) { blocker_done.set_value(); });
  wait_for_batches(service, 1);

  std::vector<std::future<QueryResponse>> queued;
  for (int i = 0; i < 2; ++i) {
    auto promise = std::make_shared<std::promise<QueryResponse>>();
    queued.push_back(promise->get_future());
    QueryRequest request = request_for(fixture, "a", std::to_string(i));
    request.epsilon = 1e-6 * (i + 1);
    service.submit(std::move(request),
                   [promise](QueryResponse r) { promise->set_value(std::move(r)); });
  }

  QueryResponse rejected = service.query(request_for(fixture, "a", "over"));
  EXPECT_EQ(rejected.error, ErrorCode::Overloaded);
  // The hint is clamped to [100ms, 60s]: never zero (clients would
  // hot-spin) and never absurd (clients would give up).
  EXPECT_GE(rejected.retry_after_ms, 100u);
  EXPECT_LE(rejected.retry_after_ms, 60000u);

  for (auto& q : queued) EXPECT_EQ(q.get().error, ErrorCode::Ok);
  blocker_done.get_future().wait();
}

TEST(ServerTest, DrainRefusesNewWorkAndFinishesInFlight) {
  AnalysisService service(ServiceOptions{.workers = 1});

  const Fixture fixture = make_ctmdp_fixture(98, 14, {1.0}, Objective::Maximize);
  std::promise<void> blocker_done;
  service.submit(make_blocker("zz", "blocker"),
                 [&](QueryResponse r) {
                   EXPECT_EQ(r.error, ErrorCode::Ok);
                   blocker_done.set_value();
                 });
  wait_for_batches(service, 1);

  auto queued_promise = std::make_shared<std::promise<QueryResponse>>();
  auto queued = queued_promise->get_future();
  service.submit(request_for(fixture, "a", "queued"),
                 [queued_promise](QueryResponse r) { queued_promise->set_value(std::move(r)); });

  service.begin_drain();
  EXPECT_TRUE(service.draining());

  // Late arrivals are refused with the stable Overloaded code, a message
  // that names the drain, and a retry hint — but nothing already admitted
  // is abandoned.
  const QueryResponse late = service.query(request_for(fixture, "a", "late"));
  EXPECT_EQ(late.error, ErrorCode::Overloaded);
  EXPECT_NE(late.message.find("draining"), std::string::npos) << late.message;
  EXPECT_GT(late.retry_after_ms, 0u);

  EXPECT_EQ(queued.get().error, ErrorCode::Ok);
  blocker_done.get_future().wait();
  service.wait_drained();
  const ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(ServerTest, FaultPlanRidesAloneWhileIdenticalCleanPairCoalesces) {
  AnalysisService service(ServiceOptions{.workers = 1, .max_batch = 16});

  const Fixture fixture = make_ctmdp_fixture(99, 20, {0.5, 1.5}, Objective::Maximize);
  std::promise<void> blocker_done;
  service.submit(make_blocker("zz", "blocker"),
                 [&](QueryResponse) { blocker_done.set_value(); });
  wait_for_batches(service, 1);

  // Three requests with the *same* solve key queued behind the blocker:
  // two clean (distinct clients) and one carrying a fault plan whose
  // threshold is far beyond the solve's poll count — semantically a
  // no-op, but its presence alone must veto coalescing.
  std::vector<std::future<QueryResponse>> answers;
  for (const char* client : {"a", "b"}) {
    auto promise = std::make_shared<std::promise<QueryResponse>>();
    answers.push_back(promise->get_future());
    service.submit(request_for(fixture, client, "clean"),
                   [promise](QueryResponse r) { promise->set_value(std::move(r)); });
  }
  QueryRequest faulty = request_for(fixture, "c", "faulty");
  faulty.cancel_after_polls = 1000000;  // armed but unreachable
  auto fault_promise = std::make_shared<std::promise<QueryResponse>>();
  auto fault_answer = fault_promise->get_future();
  service.submit(std::move(faulty),
                 [fault_promise](QueryResponse r) { fault_promise->set_value(std::move(r)); });

  for (auto& answer : answers) {
    const QueryResponse response = answer.get();
    EXPECT_EQ(response.batched_with, 2u);  // the clean pair shared one solve
    expect_matches_fixture(response, fixture);
  }
  const QueryResponse fault_response = fault_answer.get();
  EXPECT_EQ(fault_response.batched_with, 1u);  // the fault plan rode alone
  expect_matches_fixture(fault_response, fixture);
  blocker_done.get_future().wait();
  EXPECT_EQ(service.stats().coalesced, 1u);
}

TEST(SessionTest, HostileLinesAnswerTypedErrorsAndTheSessionResyncs) {
  const Fixture fixture = make_ctmdp_fixture(96, 12, {1.0}, Objective::Maximize);
  AnalysisService service(ServiceOptions{.workers = 1});

  Json model;
  model.set("kind", "ctmdp");
  model.set("source", fixture.source);
  model.set("labels", fixture.labels);
  Json good;
  good.set("id", "good");
  good.set("op", "query");
  good.set("model", std::move(model));
  good.set("time", Json(1.0));
  good.set("backend", "serial");

  std::string nul_line = "{\"id\":\"n?l\"}";
  nul_line[8] = '\0';

  std::string input;
  input += std::string(70000, 'a') + "\n";                                  // oversized
  input += nul_line + "\n";                                                 // embedded NUL
  input += "{\"id\":\"\xFF\xFE\"}\n";                                       // invalid UTF-8
  input += std::string(200, '[') + "\n";                                    // 200-deep nesting
  input += "{\"id\":\"k\",\"op\":\"query\",\"bogus\":true}\n";              // unknown field
  input += "{\"id\":\"m\",\"op\":\"query\",\"model\":{\"kind\":\"uni\",\"source\":7}}\n";
  input += good.dump() + "\n";

  std::istringstream in(input);
  std::ostringstream out;
  server::SessionOptions options;
  options.client = "hostile";
  options.timing = false;
  options.max_line_bytes = 65536;  // far above any line here but the probe
  server::run_session(in, out, service, options);

  std::vector<Json> lines;
  std::istringstream parse(out.str());
  std::string line;
  while (std::getline(parse, line)) lines.push_back(Json::parse(line));
  ASSERT_EQ(lines.size(), 8u);  // hello + 6 errors + 1 answer
  lines.erase(lines.begin());

  const char* expected_fragment[] = {
      "exceeds the 65536-byte limit", "NUL byte",      "not valid UTF-8",
      "nesting deeper than",         "unknown field", "expected a string",
  };
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(lines[i].get_bool("ok", true)) << "line " << i;
    const Json* error = lines[i].find("error");
    ASSERT_NE(error, nullptr) << "line " << i;
    EXPECT_EQ(error->get_string("code", ""), "parse") << "line " << i;
    EXPECT_NE(error->get_string("message", "").find(expected_fragment[i]), std::string::npos)
        << "line " << i << ": " << error->get_string("message", "");
  }

  // The hostile prefix consumed, the session answers the clean query
  // bit-identically to a direct solve — framing never desynchronizes.
  EXPECT_TRUE(lines[6].get_bool("ok", false));
  const Json* results = lines[6].find("results");
  ASSERT_NE(results, nullptr);
  EXPECT_EQ(bits(results->as_array()[0].get_number("value", -1.0)), bits(fixture.expected[0]));
}

TEST(SessionTest, AsyncSubmitAcceptsThenDelivers) {
  const Fixture fixture = make_ctmdp_fixture(95, 16, {1.0}, Objective::Maximize);
  AnalysisService service(ServiceOptions{.workers = 1});

  Json model;
  model.set("kind", "ctmdp");
  model.set("source", fixture.source);
  model.set("labels", fixture.labels);
  Json query;
  query.set("id", "async");
  query.set("op", "query");
  query.set("model", std::move(model));
  query.set("time", Json(1.0));
  query.set("backend", "serial");
  query.set("wait", false);

  const std::vector<Json> lines = run_jsonl(service, query.dump() + "\n");
  // Ack first, result as a later line (run_session drains at EOF).
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].get_bool("accepted", false));
  EXPECT_TRUE(lines[1].get_bool("ok", false));
  const Json* results = lines[1].find("results");
  ASSERT_NE(results, nullptr);
  EXPECT_EQ(bits(results->as_array()[0].get_number("value", -1.0)), bits(fixture.expected[0]));
}

}  // namespace
}  // namespace unicon
