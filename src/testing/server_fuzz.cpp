#include "testing/server_fuzz.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/tra.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "support/errors.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/run_guard.hpp"
#include "testing/generate.hpp"

namespace unicon::testing {

namespace {

using server::AnalysisService;
using server::HorizonAnswer;
using server::ModelKind;
using server::QueryRequest;
using server::QueryResponse;
using server::ServiceOptions;
using server::SessionOptions;

// Independent derive_seed streams so adding draws to one stage never
// shifts another.
constexpr std::uint64_t kStreamWireFixture = 0x5e01;
constexpr std::uint64_t kStreamWireMutate = 0x5e02;
constexpr std::uint64_t kStreamChaosModel = 0x5e03;
constexpr std::uint64_t kStreamChaosPlan = 0x5e04;
constexpr std::uint64_t kStreamChaosTear = 0x5e05;

/// Line cap handed to the fuzzed sessions — small enough that the
/// oversized-line mutation stays cheap, large enough for every fixture.
constexpr std::size_t kFuzzMaxLineBytes = std::size_t{1} << 16;

struct Ctx {
  std::uint64_t seed = 0;
  ServerFuzzReport* report = nullptr;
  const ServerFuzzLogFn* log = nullptr;
  // The seed's first failure, when `failed`.  A flag rather than a
  // std::optional: gcc 12 misreports the optional's string members as
  // maybe-uninitialized where the loop destroys a reset Ctx.
  bool failed = false;
  ServerFuzzFailure failure;

  void fail(const std::string& scenario, const std::string& message) {
    if (failed) return;  // keep the first failure per seed
    failed = true;
    failure = ServerFuzzFailure{seed, scenario, message};
  }
  void check(bool ok, const std::string& scenario, const std::string& message) {
    ++report->checks_run;
    if (!ok) fail(scenario, message);
  }
  void flush() {
    if (!failed) return;
    if (log != nullptr && *log) (*log)(failure);
    report->failures.push_back(failure);
    failed = false;
  }
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// ---------------------------------------------------------------------------
// Wire-protocol mutation fuzz
// ---------------------------------------------------------------------------

struct WireModel {
  std::string kind;  ///< "ctmdp" | "ctmc"
  std::string source;
  std::string labels;
};

WireModel make_wire_model(Rng& rng) {
  WireModel m;
  std::ostringstream source, labels;
  if (rng.next_below(2) == 0) {
    RandomCtmdpConfig config;
    config.num_states = 6 + rng.next_below(8);
    const Ctmdp model = random_uniform_ctmdp(rng, config);
    io::write_ctmdp(source, model);
    io::write_goal(labels, random_goal(rng, model.num_states(), 0.3));
    m.kind = "ctmdp";
  } else {
    RandomCtmcConfig config;
    config.num_states = 6 + rng.next_below(8);
    const Ctmc chain = random_ctmc(rng, config);
    io::write_ctmc(source, chain);
    io::write_goal(labels, random_goal(rng, chain.num_states(), 0.3));
    m.kind = "ctmc";
  }
  m.source = source.str();
  m.labels = labels.str();
  return m;
}

std::string make_query_line(Rng& rng, const std::string& id) {
  const WireModel wire = make_wire_model(rng);
  Json model;
  model.set("kind", Json(wire.kind));
  model.set("source", Json(wire.source));
  model.set("labels", Json(wire.labels));

  Json request;
  request.set("id", Json(id));
  request.set("op", Json(std::string("query")));
  request.set("model", std::move(model));
  JsonArray times;
  const std::uint64_t count = 1 + rng.next_below(3);
  for (std::uint64_t j = 0; j < count; ++j) {
    times.push_back(Json(0.3 + 0.7 * static_cast<double>(rng.next_below(4))));
  }
  request.set("times", Json(std::move(times)));
  if (wire.kind == "ctmdp") {
    request.set("objective", Json(std::string(rng.next_below(2) == 0 ? "max" : "min")));
  }
  request.set("epsilon", Json(1e-6));
  return request.dump();
}

struct StreamLine {
  std::string text;
  std::string clean_id;  ///< id of the pristine request ("" for inserted lines)
  bool touched = false;
};

/// One seeded mutation: either damages an existing line in place (bit flip,
/// truncation, NUL byte) or inserts a hostile line (random garbage,
/// pathological nesting, an oversized line, unknown / mistyped fields).
void apply_mutation(Rng& rng, std::vector<StreamLine>& lines, unsigned serial) {
  auto insert_line = [&](std::string text) {
    StreamLine inserted;
    inserted.text = std::move(text);
    inserted.touched = true;
    const std::size_t at = rng.next_below(lines.size() + 1);
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), std::move(inserted));
  };
  switch (rng.next_below(8)) {
    case 0: {  // flip one bit
      StreamLine& line = lines[rng.next_below(lines.size())];
      if (line.text.empty()) return;
      const std::size_t pos = rng.next_below(line.text.size());
      line.text[pos] = static_cast<char>(line.text[pos] ^ (1u << rng.next_below(8)));
      // A flip landing on '\n' would split the line in two; keep the
      // one-request-per-line framing and exercise the NUL path instead.
      if (line.text[pos] == '\n') line.text[pos] = '\0';
      line.touched = true;
      return;
    }
    case 1: {  // truncate mid-request
      StreamLine& line = lines[rng.next_below(lines.size())];
      if (line.text.empty()) return;
      line.text.resize(rng.next_below(line.text.size()));
      line.touched = true;
      return;
    }
    case 2: {  // embedded NUL byte
      StreamLine& line = lines[rng.next_below(lines.size())];
      line.text.insert(rng.next_below(line.text.size() + 1), 1, '\0');
      line.touched = true;
      return;
    }
    case 3: {  // random garbage bytes (frequently invalid UTF-8)
      std::string junk(1 + rng.next_below(64), '\0');
      for (char& c : junk) {
        c = static_cast<char>(1 + rng.next_below(255));
        if (c == '\n') c = '\0';
      }
      insert_line(std::move(junk));
      return;
    }
    case 4:  // nesting far beyond the parser's 128-level cap
      insert_line(std::string(512, '['));
      return;
    case 5:  // exceeds the session's line byte cap
      insert_line(std::string(kFuzzMaxLineBytes + 4096, 'a'));
      return;
    case 6:  // unknown envelope field
      insert_line("{\"id\":\"mut-" + std::to_string(serial) +
                  "\",\"op\":\"query\",\"bogus\":true}");
      return;
    default:  // mistyped field
      insert_line("{\"id\":\"mut-" + std::to_string(serial) +
                  "\",\"op\":\"query\",\"model\":{\"kind\":\"ctmdp\",\"source\":7},"
                  "\"times\":[1]}");
      return;
  }
}

/// Reference answers from one clean replay: id -> (results JSON, model hash).
struct ReferenceAnswer {
  std::string results;
  std::string model_hash;
};

std::string run_stream(const std::string& stream) {
  AnalysisService service(ServiceOptions{.workers = 2, .default_deadline = 10.0});
  SessionOptions options;
  options.client = "fuzz";
  options.timing = false;
  options.max_line_bytes = kFuzzMaxLineBytes;
  std::istringstream in(stream);
  std::ostringstream out;
  server::run_session(in, out, service, options);
  return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void fuzz_one_stream(Ctx& ctx, const ServerFuzzConfig& config) {
  Rng fixture_rng(derive_seed(ctx.seed, kStreamWireFixture));
  Rng mutate_rng(derive_seed(ctx.seed, kStreamWireMutate));

  std::vector<StreamLine> lines;
  const std::uint64_t num_queries = 2 + fixture_rng.next_below(3);
  for (std::uint64_t i = 0; i < num_queries; ++i) {
    StreamLine line;
    line.clean_id = "q" + std::to_string(i);
    line.text = make_query_line(fixture_rng, line.clean_id);
    lines.push_back(std::move(line));
  }
  const std::string tail =
      "{\"id\":\"stats-end\",\"op\":\"stats\"}\n{\"id\":\"end\",\"op\":\"shutdown\"}\n";

  // Clean replay: the oracle for every line the mutations leave alone.
  std::string clean_stream;
  for (const StreamLine& line : lines) clean_stream += line.text + "\n";
  clean_stream += tail;
  std::map<std::string, ReferenceAnswer> reference;
  for (const std::string& out : split_lines(run_stream(clean_stream))) {
    const Json parsed = Json::parse(out);
    if (parsed.find("hello") != nullptr) continue;
    const std::string id = parsed.get_string("id", "");
    if (!parsed.get_bool("ok", false)) continue;
    const Json* results = parsed.find("results");
    if (results == nullptr) continue;
    reference[id] = ReferenceAnswer{results->dump(), parsed.get_string("model_hash", "")};
  }
  ctx.check(reference.size() == num_queries, "wire",
            "clean replay failed: only " + std::to_string(reference.size()) + " of " +
                std::to_string(num_queries) + " fixture queries answered ok");

  for (unsigned m = 0; m < config.mutations_per_stream; ++m) {
    apply_mutation(mutate_rng, lines, m);
    ++ctx.report->faults_injected;
  }

  // A mutated line forfeits its oracle — and if the damage happens to
  // produce a *valid* request claiming some other id (a bit flip inside the
  // id string), that id's oracle is forfeit too.
  std::set<std::string> touched;
  for (const StreamLine& line : lines) {
    if (!line.touched) continue;
    if (!line.clean_id.empty()) touched.insert(line.clean_id);
    try {
      const Json parsed = Json::parse(line.text);
      const Json* id = parsed.find("id");
      if (id != nullptr && id->is_string()) touched.insert(id->as_string());
    } catch (const std::exception&) {
      // Unparseable mutant: it can only ever be answered with id "".
    }
  }

  std::string mutated_stream;
  for (const StreamLine& line : lines) mutated_stream += line.text + "\n";
  mutated_stream += tail;
  const std::string output = run_stream(mutated_stream);

  bool hello_seen = false;
  bool bye_seen = false;
  bool stats_ok = false;
  std::map<std::string, int> answered;
  for (const std::string& out : split_lines(output)) {
    Json parsed;
    try {
      parsed = Json::parse(out);
    } catch (const std::exception& e) {
      ctx.fail("wire", std::string("output line is not valid JSON (") + e.what() +
                           "): " + out.substr(0, 160));
      continue;
    }
    ++ctx.report->checks_run;  // the line parsed
    if (parsed.find("hello") != nullptr) {
      hello_seen = true;
      continue;
    }
    const Json* ok = parsed.find("ok");
    ctx.check(ok != nullptr && ok->is_bool(), "wire",
              "response without a bool 'ok': " + out.substr(0, 160));
    if (ok == nullptr || !ok->is_bool()) continue;
    const Json* id_field = parsed.find("id");
    const std::string id =
        id_field != nullptr && id_field->is_string() ? id_field->as_string() : "";
    ++answered[id];

    if (!ok->as_bool()) {
      const Json* error = parsed.find("error");
      const bool typed = error != nullptr && error->is_object() &&
                         error->find("code") != nullptr && error->find("code")->is_string() &&
                         error->find("message") != nullptr;
      ctx.check(typed, "wire", "failure response without a typed error object: " +
                                   out.substr(0, 160));
      continue;
    }
    if (id == "stats-end") stats_ok = true;
    if (id == "end" && parsed.get_bool("bye", false)) bye_seen = true;
    const auto ref = reference.find(id);
    if (ref == reference.end() || touched.count(id) > 0) continue;
    const Json* results = parsed.find("results");
    ctx.check(results != nullptr && results->dump() == ref->second.results, "wire",
              "untouched request '" + id + "' answered with different results than the clean replay");
    ctx.check(parsed.get_string("model_hash", "") == ref->second.model_hash, "wire",
              "untouched request '" + id + "' answered with a different model hash");
  }

  ctx.check(hello_seen, "wire", "session did not open with the hello line");
  for (const StreamLine& line : lines) {
    if (line.touched || line.clean_id.empty()) continue;
    const auto it = answered.find(line.clean_id);
    ctx.check(it != answered.end() && it->second == 1, "wire",
              "untouched request '" + line.clean_id + "' answered " +
                  std::to_string(it == answered.end() ? 0 : it->second) +
                  " times (want exactly 1)");
  }
  ctx.check(stats_ok, "wire", "trailing stats op was not answered ok");
  ctx.check(bye_seen, "wire",
            "trailing shutdown was not acknowledged — the session never re-synchronized");
}

// ---------------------------------------------------------------------------
// Chaos harness
// ---------------------------------------------------------------------------

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

QueryRequest make_ctmdp_request(Rng& rng, std::string id) {
  RandomCtmdpConfig config;
  config.num_states = 8 + rng.next_below(8);
  const Ctmdp model = random_uniform_ctmdp(rng, config);
  const BitVector goal = random_goal(rng, model.num_states(), 0.3);

  QueryRequest request;
  request.client = "chaos";
  request.id = std::move(id);
  request.kind = ModelKind::CtmdpFile;
  request.source = serialize_ctmdp(model);
  request.labels = serialize_goal(goal);
  request.times = {0.4, 1.3};
  request.objective = rng.next_below(2) == 0 ? Objective::Maximize : Objective::Minimize;
  request.backend = Backend::Serial;
  return request;
}

QueryRequest make_ctmc_request(Rng& rng, std::string id) {
  RandomCtmcConfig config;
  config.num_states = 8 + rng.next_below(8);
  const Ctmc chain = random_ctmc(rng, config);
  const BitVector goal = random_goal(rng, chain.num_states(), 0.3);

  QueryRequest request;
  request.client = "chaos";
  request.id = std::move(id);
  request.kind = ModelKind::CtmcFile;
  request.source = serialize_ctmc(chain);
  request.labels = serialize_goal(goal);
  request.times = {0.7};
  request.backend = Backend::Serial;
  return request;
}

/// A request sized to occupy a worker for >= ~100 ms (same shape as the
/// server_test blocker), pinning queue contents while others are submitted.
QueryRequest make_blocker() {
  Rng rng(0xb10cce5u);
  RandomCtmdpConfig config;
  config.num_states = 600;
  config.uniform_rate = 3.0;
  const Ctmdp model = random_uniform_ctmdp(rng, config);
  const BitVector goal = random_goal(rng, model.num_states(), 0.1);

  QueryRequest request;
  request.client = "chaos";
  request.id = "blocker";
  request.kind = ModelKind::CtmdpFile;
  request.source = serialize_ctmdp(model);
  request.labels = serialize_goal(goal);
  request.times = {400.0, 401.0, 402.0, 403.0};
  request.epsilon = 1e-12;
  request.backend = Backend::Serial;
  return request;
}

bool same_answers(const std::vector<HorizonAnswer>& a, const std::vector<HorizonAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (bits(a[j].time) != bits(b[j].time) || bits(a[j].value) != bits(b[j].value) ||
        bits(a[j].residual_bound) != bits(b[j].residual_bound) ||
        a[j].iterations_planned != b[j].iterations_planned ||
        a[j].iterations_executed != b[j].iterations_executed || a[j].status != b[j].status) {
      return false;
    }
  }
  return true;
}

void submit_async(AnalysisService& service, QueryRequest request,
                  std::future<QueryResponse>& out) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  out = promise->get_future();
  service.submit(std::move(request), [promise](QueryResponse r) {
    promise->set_value(std::move(r));
  });
}

bool wait_for_batches(AnalysisService& service, std::uint64_t batches) {
  for (int i = 0; i < 200000; ++i) {
    if (service.stats().batches >= batches) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Scenario 1: cancel-mid-sweep.  The faulted request must be answered with
/// a sound partial (or a typed Cancelled error) and its clean co-request —
/// running on the second worker — must be answered bit-identically to the
/// undisturbed reference.
void chaos_cancel(Ctx& ctx, Rng& plan, const QueryRequest& base,
                  const std::vector<HorizonAnswer>& expected) {
  AnalysisService service(ServiceOptions{.workers = 2});
  QueryRequest faulted = base;
  faulted.id = "fault";
  faulted.cancel_after_polls = 1 + plan.next_below(8);
  std::future<QueryResponse> fault_done, clean_done;
  submit_async(service, std::move(faulted), fault_done);
  QueryRequest clean = base;
  clean.id = "clean";
  submit_async(service, std::move(clean), clean_done);
  const QueryResponse fault = fault_done.get();
  const QueryResponse survivor = clean_done.get();
  ++ctx.report->faults_injected;

  ctx.check(survivor.error == ErrorCode::Ok && same_answers(survivor.results, expected),
            "cancel", "clean co-request was not answered bit-identically to the reference");
  if (fault.error == ErrorCode::Cancelled) return;  // typed abort: sound
  ctx.check(fault.error == ErrorCode::Ok, "cancel",
            "cancelled request answered with unexpected error: " + fault.message);
  if (fault.error != ErrorCode::Ok) return;
  ctx.check(fault.results.size() == expected.size(), "cancel",
            "cancelled request answered with the wrong horizon count");
  if (fault.results.size() != expected.size()) return;
  for (std::size_t j = 0; j < fault.results.size(); ++j) {
    const HorizonAnswer& h = fault.results[j];
    if (h.status == RunStatus::Converged) {
      ctx.check(bits(h.value) == bits(expected[j].value), "cancel",
                "converged horizon of a cancelled request differs from the reference — "
                "unsound answer");
    } else {
      ctx.check(std::isfinite(h.value) && h.value >= -1e-9 && h.value <= 1.0 + 1e-9 &&
                    h.iterations_executed <= h.iterations_planned,
                "cancel", "partial horizon of a cancelled request is out of range");
    }
  }
}

/// Scenario 2: allocation failure mid-solve.  Typed OutOfMemory (or a full,
/// bit-identical answer when the fault never fires) — and the service must
/// answer the next clean request bit-identically (no poisoned cache).
void chaos_alloc(Ctx& ctx, Rng& plan, const QueryRequest& base,
                 const std::vector<HorizonAnswer>& expected) {
  AnalysisService service(ServiceOptions{.workers = 1});
  QueryRequest faulted = base;
  faulted.id = "fault";
  faulted.fault_alloc_nth = 1 + plan.next_below(40);
  const QueryResponse fault = service.query(std::move(faulted));
  ++ctx.report->faults_injected;
  const bool sound = fault.error == ErrorCode::OutOfMemory ||
                     (fault.error == ErrorCode::Ok && same_answers(fault.results, expected));
  ctx.check(sound, "alloc",
            "allocation-faulted request neither failed typed nor answered bit-identically "
            "(error " +
                std::to_string(static_cast<int>(fault.error)) + ": " + fault.message + ")");

  QueryRequest clean = base;
  clean.id = "after";
  const QueryResponse after = service.query(std::move(clean));
  ctx.check(after.error == ErrorCode::Ok && same_answers(after.results, expected), "alloc",
            "service did not recover after an allocation fault: " + after.message);
}

/// Scenario 3: NaN-poisoned iterate.  The damage must stay in this request:
/// typed Numeric error, NaN in its own answer, or a bit-identical value the
/// poison never reached — never a *finite but different* value.
void chaos_poison(Ctx& ctx, Rng& plan, const QueryRequest& base,
                  const std::vector<HorizonAnswer>& expected) {
  AnalysisService service(ServiceOptions{.workers = 1});
  QueryRequest faulted = base;
  faulted.id = "fault";
  faulted.fault_poison_step = 1 + plan.next_below(6);
  const QueryResponse fault = service.query(std::move(faulted));
  ++ctx.report->faults_injected;
  if (fault.error != ErrorCode::Numeric) {
    ctx.check(fault.error == ErrorCode::Ok && fault.results.size() == expected.size(), "poison",
              "poisoned request answered with unexpected error: " + fault.message);
    if (fault.error == ErrorCode::Ok && fault.results.size() == expected.size()) {
      for (std::size_t j = 0; j < fault.results.size(); ++j) {
        const double v = fault.results[j].value;
        ctx.check(std::isnan(v) || bits(v) == bits(expected[j].value), "poison",
                  "poisoned request produced a finite value that differs from the "
                  "reference — silent corruption");
      }
    }
  }

  QueryRequest clean = base;
  clean.id = "after";
  const QueryResponse after = service.query(std::move(clean));
  ctx.check(after.error == ErrorCode::Ok && same_answers(after.results, expected), "poison",
            "service did not recover after a poisoned solve: " + after.message);
}

/// Scenario 4: simulated worker death.  Typed Internal answer, clean
/// co-request unharmed, worker pool still alive afterwards.
void chaos_worker_throw(Ctx& ctx, const QueryRequest& base,
                        const std::vector<HorizonAnswer>& expected) {
  AnalysisService service(ServiceOptions{.workers = 2});
  QueryRequest faulted = base;
  faulted.id = "fault";
  faulted.fault_throw = true;
  std::future<QueryResponse> fault_done, clean_done;
  submit_async(service, std::move(faulted), fault_done);
  QueryRequest clean = base;
  clean.id = "clean";
  submit_async(service, std::move(clean), clean_done);
  const QueryResponse fault = fault_done.get();
  const QueryResponse survivor = clean_done.get();
  ++ctx.report->faults_injected;

  ctx.check(fault.error == ErrorCode::Internal &&
                fault.message.find("fault plan") != std::string::npos,
            "worker-throw", "worker fault was not answered as a typed Internal error");
  ctx.check(survivor.error == ErrorCode::Ok && same_answers(survivor.results, expected),
            "worker-throw", "clean co-request was damaged by a worker fault");

  QueryRequest again = base;
  again.id = "after";
  const QueryResponse after = service.query(std::move(again));
  ctx.check(after.error == ErrorCode::Ok && same_answers(after.results, expected),
            "worker-throw", "worker pool did not survive an injected fault");
}

/// Scenarios 5+6: snapshot warm restart and torn snapshot.  A warm-started
/// service must answer bit-identically out of the cache and re-snapshot to
/// byte-identical bytes; a torn/corrupted snapshot must be detected and
/// degrade to a cold start with correct answers.
void chaos_snapshot(Ctx& ctx, Rng& tear, const ServerFuzzConfig& config,
                    const QueryRequest& req_a, const std::vector<HorizonAnswer>& expected_a,
                    const QueryRequest& req_c, const std::vector<HorizonAnswer>& expected_c) {
  const std::string stem =
      config.scratch_dir + "/unicon_server_chaos_" + std::to_string(ctx.seed);
  const std::string snap_path = stem + ".snap";
  const std::string resnap_path = stem + ".resnap";
  const std::string torn_path = stem + ".torn";

  std::string snapshot_bytes;
  std::size_t entries_written = 0;
  {
    AnalysisService warm_source(ServiceOptions{.workers = 1});
    const QueryResponse a = warm_source.query(req_a);
    const QueryResponse c = warm_source.query(req_c);
    ctx.check(a.error == ErrorCode::Ok && same_answers(a.results, expected_a) &&
                  c.error == ErrorCode::Ok && same_answers(c.results, expected_c),
              "snapshot-warm", "cold service disagrees with the reference service");
    try {
      const auto saved = warm_source.save_cache(snap_path);
      entries_written = saved.entries_written;
      ctx.check(saved.entries_written == 2, "snapshot-warm",
                "expected 2 snapshot entries, wrote " + std::to_string(saved.entries_written));
    } catch (const std::exception& e) {
      ctx.fail("snapshot-warm", std::string("save_cache threw: ") + e.what());
      return;
    }
    snapshot_bytes = read_file(snap_path);
  }

  {
    AnalysisService restarted(ServiceOptions{.workers = 1});
    const auto loaded = restarted.load_cache(snap_path);
    ctx.check(loaded.entries_loaded == entries_written && loaded.entries_corrupt == 0 &&
                  !loaded.truncated,
              "snapshot-warm", "pristine snapshot did not load cleanly");
    const QueryResponse a = restarted.query(req_a);
    const QueryResponse c = restarted.query(req_c);
    ctx.check(a.error == ErrorCode::Ok && same_answers(a.results, expected_a) && a.cache_hit &&
                  c.error == ErrorCode::Ok && same_answers(c.results, expected_c) && c.cache_hit,
              "snapshot-warm",
              "warm restart did not answer bit-identically out of the loaded cache");
    try {
      restarted.save_cache(resnap_path);
      ctx.check(read_file(resnap_path) == snapshot_bytes, "snapshot-warm",
                "re-snapshot of a warm-started cache is not byte-identical");
    } catch (const std::exception& e) {
      ctx.fail("snapshot-warm", std::string("re-snapshot threw: ") + e.what());
    }
  }

  // Tear the snapshot three ways (rotating by seed): truncation, a single
  // flipped bit, a stomped byte range.
  std::string torn = snapshot_bytes;
  switch (ctx.seed % 3) {
    case 0:
      torn.resize(1 + tear.next_below(torn.size() - 1));
      break;
    case 1: {
      const std::size_t pos = tear.next_below(torn.size());
      torn[pos] = static_cast<char>(torn[pos] ^ (1u << tear.next_below(8)));
      break;
    }
    default: {
      const std::size_t pos = tear.next_below(torn.size() > 8 ? torn.size() - 8 : 1);
      for (std::size_t j = 0; j < 8 && pos + j < torn.size(); ++j) {
        torn[pos + j] = static_cast<char>(0xFF);
      }
      break;
    }
  }
  write_file(torn_path, torn);
  ++ctx.report->faults_injected;
  {
    AnalysisService cold(ServiceOptions{.workers = 1});
    const auto loaded = cold.load_cache(torn_path);  // must not throw
    ctx.check(loaded.entries_corrupt > 0 || loaded.truncated ||
                  loaded.entries_loaded < entries_written,
              "snapshot-torn", "corruption was not detected by the snapshot loader");
    const QueryResponse a = cold.query(req_a);
    const QueryResponse c = cold.query(req_c);
    ctx.check(a.error == ErrorCode::Ok && same_answers(a.results, expected_a) &&
                  c.error == ErrorCode::Ok && same_answers(c.results, expected_c),
              "snapshot-torn",
              "service with a torn snapshot did not degrade to correct cold answers");
  }

  std::remove(snap_path.c_str());
  std::remove(resnap_path.c_str());
  std::remove(torn_path.c_str());
}

/// Scenario 7: overload and drain.  Overflow answered Overloaded with a
/// retry hint, drain refuses new work naming the reason, admitted work
/// still completes and every callback fires.
void chaos_overload_drain(Ctx& ctx, const QueryRequest& base) {
  AnalysisService service(ServiceOptions{.workers = 1, .max_pending = 2});

  std::future<QueryResponse> blocker_done;
  submit_async(service, make_blocker(), blocker_done);
  if (!wait_for_batches(service, 1)) {
    ctx.fail("overload", "blocker was never dispatched");
    return;
  }

  // The worker is pinned on the blocker; these two fill the queue exactly.
  std::vector<std::future<QueryResponse>> fillers(2);
  for (std::size_t i = 0; i < fillers.size(); ++i) {
    QueryRequest filler = base;
    filler.id = "fill" + std::to_string(i);
    filler.epsilon = 1e-6 * static_cast<double>(i + 1);  // distinct solve keys
    submit_async(service, std::move(filler), fillers[i]);
  }

  QueryRequest overflow = base;
  overflow.id = "overflow";
  const QueryResponse rejected = service.query(std::move(overflow));
  ctx.check(rejected.error == ErrorCode::Overloaded, "overload",
            "overflow past max_pending was not answered Overloaded: " + rejected.message);
  ctx.check(rejected.retry_after_ms >= 100 && rejected.retry_after_ms <= 60000, "overload",
            "Overloaded answer carries no usable retry_after_ms (" +
                std::to_string(rejected.retry_after_ms) + ")");

  service.begin_drain();
  QueryRequest late = base;
  late.id = "late";
  const QueryResponse refused = service.query(std::move(late));
  ctx.check(refused.error == ErrorCode::Overloaded &&
                refused.message.find("draining") != std::string::npos &&
                refused.retry_after_ms > 0,
            "drain", "submission during drain was not refused with a draining hint");

  service.wait_drained();
  const QueryResponse blocker = blocker_done.get();
  ctx.check(blocker.error == ErrorCode::Ok, "drain",
            "blocker did not complete across the drain: " + blocker.message);
  for (auto& filler : fillers) {
    const QueryResponse r = filler.get();
    ctx.check(r.error == ErrorCode::Ok && r.results.size() == base.times.size(), "drain",
              "queued request was not completed across the drain: " + r.message);
  }
  const auto stats = service.stats();
  ctx.check(stats.rejected == 2 && stats.draining && stats.pending == 0, "drain",
            "post-drain stats inconsistent (rejected " + std::to_string(stats.rejected) +
                ", draining " + std::to_string(stats.draining) + ", pending " +
                std::to_string(stats.pending) + ")");
}

void chaos_one_seed(Ctx& ctx, const ServerFuzzConfig& config) {
  Rng model_rng(derive_seed(ctx.seed, kStreamChaosModel));
  Rng plan_rng(derive_seed(ctx.seed, kStreamChaosPlan));
  Rng tear_rng(derive_seed(ctx.seed, kStreamChaosTear));

  const QueryRequest req_a = make_ctmdp_request(model_rng, "ref");
  const QueryRequest req_c = make_ctmc_request(model_rng, "ref");

  // The undisturbed reference: a dedicated service nothing is injected into.
  std::vector<HorizonAnswer> expected_a, expected_c;
  {
    AnalysisService reference(ServiceOptions{.workers = 1});
    const QueryResponse a = reference.query(req_a);
    const QueryResponse c = reference.query(req_c);
    if (a.error != ErrorCode::Ok || c.error != ErrorCode::Ok) {
      ctx.fail("reference", "reference solve failed: " + a.message + c.message);
      return;
    }
    expected_a = a.results;
    expected_c = c.results;
  }

  chaos_cancel(ctx, plan_rng, req_a, expected_a);
  chaos_alloc(ctx, plan_rng, req_a, expected_a);
  chaos_poison(ctx, plan_rng, req_a, expected_a);
  chaos_worker_throw(ctx, req_a, expected_a);
  chaos_snapshot(ctx, tear_rng, config, req_a, expected_a, req_c, expected_c);
  chaos_overload_drain(ctx, req_a);
}

}  // namespace

ServerFuzzReport run_server_fuzz(const ServerFuzzConfig& config, const ServerFuzzLogFn& log) {
  ServerFuzzReport report;
  for (std::uint64_t s = 0; s < config.num_seeds; ++s) {
    Ctx ctx;
    ctx.seed = config.base_seed + s;
    ctx.report = &report;
    ctx.log = &log;
    fuzz_one_stream(ctx, config);
    ctx.flush();
    ++report.seeds_run;
  }
  return report;
}

ServerFuzzReport run_server_chaos(const ServerFuzzConfig& config, const ServerFuzzLogFn& log) {
  ServerFuzzReport report;
  // The snapshot legs write their scratch files here.
  std::error_code error;
  std::filesystem::create_directories(config.scratch_dir, error);
  if (error) {
    report.failures.push_back(
        {config.base_seed, "snapshot-dir",
         "cannot create '" + config.scratch_dir + "': " + error.message()});
    if (log) log(report.failures.back());
  }
  for (std::uint64_t s = 0; s < config.num_seeds; ++s) {
    Ctx ctx;
    ctx.seed = config.base_seed + s;
    ctx.report = &report;
    ctx.log = &log;
    chaos_one_seed(ctx, config);
    ctx.flush();
    ++report.seeds_run;
  }
  return report;
}

}  // namespace unicon::testing
