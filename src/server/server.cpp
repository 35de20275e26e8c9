#include "server/server.hpp"

#include <cmath>
#include <condition_variable>
#include <initializer_list>
#include <istream>
#include <mutex>
#include <ostream>
#include <string_view>

#include "support/json.hpp"
#include "server/service.hpp"
#include "support/backend.hpp"
#include "support/errors.hpp"

namespace unicon::server {

namespace {

/// Serialized line output plus the outstanding-async bookkeeping shared
/// with completion callbacks (which run on service worker threads).
struct Session {
  Session(std::ostream& o, SessionOptions opts) : out(o), options(std::move(opts)) {}

  std::ostream& out;
  SessionOptions options;
  std::mutex mutex;
  std::condition_variable idle;
  std::size_t outstanding = 0;

  void write_line(const Json& response) {
    std::lock_guard<std::mutex> lock(mutex);
    out << response.dump() << '\n';
    out.flush();
  }

  void finish_async(const Json& response) {
    std::lock_guard<std::mutex> lock(mutex);
    out << response.dump() << '\n';
    out.flush();
    --outstanding;
    idle.notify_all();
  }

  void drain() {
    std::unique_lock<std::mutex> lock(mutex);
    idle.wait(lock, [this] { return outstanding == 0; });
  }
};

/// Wire-protocol version, echoed in the hello line and every response
/// envelope so clients can detect schema drift before parsing further.
/// Bump when a response field changes shape or meaning.
constexpr int kProtocolVersion = 1;

/// Starts a response envelope: id first, then the protocol version.
Json envelope(const std::string& id) {
  Json response;
  response.set("id", id);
  response.set("version", kProtocolVersion);
  return response;
}

Json error_json(const std::string& id, ErrorCode code, const std::string& message,
                std::uint64_t retry_after_ms = 0) {
  Json error;
  error.set("code", error_code_name(code));
  error.set("exit", static_cast<int>(code));
  error.set("message", message);
  // Overloaded answers carry the service's back-off hint so a well-behaved
  // client knows when the queue is expected to have room again.
  if (retry_after_ms > 0) error.set("retry_after_ms", retry_after_ms);
  Json response = envelope(id);
  response.set("ok", false);
  response.set("error", std::move(error));
  return response;
}

Json response_json(const QueryResponse& r, bool timing) {
  if (r.error != ErrorCode::Ok) return error_json(r.id, r.error, r.message, r.retry_after_ms);
  Json response = envelope(r.id);
  response.set("ok", true);
  response.set("model_hash", r.model_hash);
  response.set("cache_hit", r.cache_hit);
  response.set("batched_with", static_cast<std::uint64_t>(r.batched_with));
  JsonArray results;
  results.reserve(r.results.size());
  for (const HorizonAnswer& h : r.results) {
    Json item;
    item.set("time", h.time);
    item.set("value", h.value);
    item.set("residual_bound", h.residual_bound);
    item.set("iterations_planned", h.iterations_planned);
    item.set("iterations_executed", h.iterations_executed);
    item.set("status", run_status_name(h.status));
    results.push_back(std::move(item));
  }
  response.set("results", Json(std::move(results)));
  response.set("seconds", timing ? r.seconds : 0.0);
  return response;
}

ModelKind parse_kind(const std::string& name) {
  if (name == "uni") return ModelKind::Uni;
  if (name == "dft") return ModelKind::Dft;
  if (name == "ctmdp") return ModelKind::CtmdpFile;
  if (name == "ctmc") return ModelKind::CtmcFile;
  throw ParseError("unknown model kind '" + name + "' (expected uni, dft, ctmdp or ctmc)");
}

// --- strict envelope validation -----------------------------------------
//
// Every field is checked individually so a hostile or buggy client gets a
// diagnostic naming the exact field and the type mismatch, and unknown
// fields are rejected outright (a typoed "epsiln" must not silently run
// with the default).  @p path prefixes nested objects ("model.").

const char* json_type_name(Json::Type type) {
  switch (type) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return "a boolean";
    case Json::Type::Number: return "a number";
    case Json::Type::String: return "a string";
    case Json::Type::Array: return "an array";
    case Json::Type::Object: return "an object";
  }
  return "?";
}

[[noreturn]] void field_type_error(const std::string& path, const std::string& key,
                                   const char* want, const Json& got) {
  throw ParseError("field '" + path + key + "': expected " + want + ", got " +
                   json_type_name(got.type()));
}

std::string field_string(const Json& obj, const std::string& path, const std::string& key,
                         const std::string& fallback) {
  const Json* value = obj.find(key);
  if (value == nullptr || value->is_null()) return fallback;
  if (!value->is_string()) field_type_error(path, key, "a string", *value);
  return value->as_string();
}

bool field_bool(const Json& obj, const std::string& path, const std::string& key, bool fallback) {
  const Json* value = obj.find(key);
  if (value == nullptr || value->is_null()) return fallback;
  if (!value->is_bool()) field_type_error(path, key, "a boolean", *value);
  return value->as_bool();
}

double field_number(const Json& obj, const std::string& path, const std::string& key,
                    double fallback) {
  const Json* value = obj.find(key);
  if (value == nullptr || value->is_null()) return fallback;
  if (!value->is_number()) field_type_error(path, key, "a number", *value);
  const double v = value->as_number();
  if (!std::isfinite(v)) {
    throw ParseError("field '" + path + key + "': must be finite");
  }
  return v;
}

std::uint64_t field_count(const Json& obj, const std::string& path, const std::string& key,
                          std::uint64_t fallback, std::uint64_t max) {
  const Json* value = obj.find(key);
  if (value == nullptr || value->is_null()) return fallback;
  if (!value->is_number()) field_type_error(path, key, "a non-negative integer", *value);
  const double v = value->as_number();
  if (!std::isfinite(v) || v < 0.0 || v != std::floor(v)) {
    throw ParseError("field '" + path + key + "': expected a non-negative integer");
  }
  if (v > static_cast<double>(max)) {
    throw ParseError("field '" + path + key + "': exceeds the limit of " + std::to_string(max));
  }
  return static_cast<std::uint64_t>(v);
}

void reject_unknown_fields(const Json& obj, const std::string& path,
                           std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : obj.as_object()) {
    bool recognized = false;
    for (const std::string_view k : known) {
      if (key == k) {
        recognized = true;
        break;
      }
    }
    if (!recognized) {
      throw ParseError("unknown field '" + path + key + "'");
    }
  }
}

/// Cap on time bounds per query: a million-element "times" array must fail
/// fast, not allocate a million-horizon batch plan.
constexpr std::size_t kMaxTimesPerQuery = 10000;

QueryRequest parse_query(const Json& request, const SessionOptions& options) {
  reject_unknown_fields(request, "",
                        {"id", "op", "model", "times", "time", "objective", "epsilon",
                         "backend", "truncation", "locking", "threads", "deadline",
                         "cancel_after_polls", "fault_alloc_nth", "fault_poison_step",
                         "fault_throw", "wait"});
  QueryRequest query;
  query.client = options.client;
  query.id = field_string(request, "", "id", "");

  const Json* model = request.find("model");
  if (model == nullptr) throw ParseError("query without 'model' object");
  if (!model->is_object()) field_type_error("", "model", "an object", *model);
  reject_unknown_fields(*model, "model.", {"kind", "source", "labels", "goal"});
  query.kind = parse_kind(field_string(*model, "model.", "kind", "uni"));
  query.source = field_string(*model, "model.", "source", "");
  if (query.source.empty()) throw ParseError("query without model 'source'");
  query.labels = field_string(*model, "model.", "labels", "");
  query.goal_name = field_string(*model, "model.", "goal", "goal");

  if (const Json* times = request.find("times"); times != nullptr) {
    if (!times->is_array()) field_type_error("", "times", "an array", *times);
    if (times->as_array().size() > kMaxTimesPerQuery) {
      throw ParseError("field 'times': holds " + std::to_string(times->as_array().size()) +
                       " bounds, limit is " + std::to_string(kMaxTimesPerQuery));
    }
    std::size_t index = 0;
    for (const Json& t : times->as_array()) {
      if (!t.is_number()) {
        throw ParseError("field 'times[" + std::to_string(index) + "]': expected a number, got " +
                         json_type_name(t.type()));
      }
      const double bound = t.as_number();
      if (!std::isfinite(bound) || bound < 0.0) {
        throw ParseError("field 'times[" + std::to_string(index) +
                         "]': time bound must be finite and non-negative");
      }
      query.times.push_back(bound);
      ++index;
    }
  } else if (const Json* time = request.find("time"); time != nullptr) {
    const double bound = field_number(request, "", "time", 0.0);
    if (!(bound >= 0.0)) throw ParseError("field 'time': time bound must be non-negative");
    query.times.push_back(bound);
  } else {
    throw ParseError("query without 'times' (or 'time')");
  }

  const std::string objective = field_string(request, "", "objective", "max");
  if (objective == "max") {
    query.objective = Objective::Maximize;
  } else if (objective == "min") {
    query.objective = Objective::Minimize;
  } else {
    throw ParseError("unknown objective '" + objective + "' (expected max or min)");
  }

  query.epsilon = field_number(request, "", "epsilon", 1e-6);
  if (!(query.epsilon > 0.0)) throw ParseError("epsilon must be positive");
  query.backend = parse_backend(field_string(request, "", "backend", "auto"));
  query.truncation = parse_truncation(field_string(request, "", "truncation", "auto"));
  query.locking = field_bool(request, "", "locking", true);
  query.threads = static_cast<unsigned>(field_count(request, "", "threads", 1, 4096));
  query.deadline = field_number(request, "", "deadline", 0.0);
  if (query.deadline < 0.0) throw ParseError("deadline must be non-negative");
  query.cancel_after_polls =
      field_count(request, "", "cancel_after_polls", 0, std::uint64_t{1} << 53);
  // Fault plans are an operator opt-in, not a client right: the alloc
  // fault arms a process-global hook, so an untrusted client on a shared
  // server must not be able to send one at all.  The fields stay in the
  // known list above so the diagnostic names the gate, not a typo.
  if (!options.allow_fault_plans) {
    for (const char* key : {"fault_alloc_nth", "fault_poison_step", "fault_throw"}) {
      if (request.find(key) != nullptr) {
        throw ParseError(std::string("field '") + key +
                         "': fault plans are disabled on this server "
                         "(start unicon_serve with --enable-fault-plans)");
      }
    }
  }
  query.fault_alloc_nth = field_count(request, "", "fault_alloc_nth", 0, std::uint64_t{1} << 53);
  query.fault_poison_step =
      field_count(request, "", "fault_poison_step", 0, std::uint64_t{1} << 53);
  query.fault_throw = field_bool(request, "", "fault_throw", false);
  return query;
}

Json stats_json(const ServiceStats& stats) {
  Json cache;
  cache.set("source_hits", stats.cache.source_hits);
  cache.set("canonical_hits", stats.cache.canonical_hits);
  cache.set("misses", stats.cache.misses);
  cache.set("evictions", stats.cache.evictions);
  cache.set("entries", static_cast<std::uint64_t>(stats.cache.entries));
  cache.set("resident_bytes", static_cast<std::uint64_t>(stats.cache.resident_bytes));
  Json s;
  s.set("submitted", stats.submitted);
  s.set("completed", stats.completed);
  s.set("rejected", stats.rejected);
  s.set("cancelled", stats.cancelled);
  s.set("batches", stats.batches);
  s.set("coalesced", stats.coalesced);
  s.set("pending", static_cast<std::uint64_t>(stats.pending));
  s.set("draining", stats.draining);
  s.set("cache", std::move(cache));
  return s;
}

// --- bounded line input --------------------------------------------------

enum class ReadLine { Ok, Eof, Oversized };

/// getline with a byte cap: reads straight off the streambuf and stops
/// buffering once @p max_bytes are held, then discards (without storing)
/// the remainder of the line so the session stays framed.  A hostile
/// client can therefore cost at most max_bytes of memory per connection.
ReadLine read_bounded_line(std::istream& in, std::string& line, std::size_t max_bytes) {
  line.clear();
  std::streambuf* buffer = in.rdbuf();
  constexpr int kEof = std::char_traits<char>::eof();
  int ch;
  while ((ch = buffer->sbumpc()) != kEof) {
    if (ch == '\n') return ReadLine::Ok;
    if (line.size() >= max_bytes) {
      while ((ch = buffer->sbumpc()) != kEof && ch != '\n') {
      }
      return ReadLine::Oversized;
    }
    line.push_back(static_cast<char>(ch));
  }
  return line.empty() ? ReadLine::Eof : ReadLine::Ok;
}

/// Byte offset of the first invalid UTF-8 sequence (strict: overlong
/// encodings, surrogates and code points past U+10FFFF all count), or npos
/// when the whole line is valid.
std::size_t first_invalid_utf8(std::string_view text) {
  constexpr std::size_t npos = std::string_view::npos;
  std::size_t i = 0;
  while (i < text.size()) {
    const unsigned char lead = static_cast<unsigned char>(text[i]);
    if (lead < 0x80) {
      ++i;
      continue;
    }
    std::size_t length;
    std::uint32_t code_point;
    std::uint32_t min_value;
    if ((lead & 0xe0) == 0xc0) {
      length = 2;
      code_point = lead & 0x1f;
      min_value = 0x80;
    } else if ((lead & 0xf0) == 0xe0) {
      length = 3;
      code_point = lead & 0x0f;
      min_value = 0x800;
    } else if ((lead & 0xf8) == 0xf0) {
      length = 4;
      code_point = lead & 0x07;
      min_value = 0x10000;
    } else {
      return i;  // stray continuation byte or 0xfe/0xff
    }
    if (i + length > text.size()) return i;
    for (std::size_t k = 1; k < length; ++k) {
      const unsigned char cont = static_cast<unsigned char>(text[i + k]);
      if ((cont & 0xc0) != 0x80) return i;
      code_point = (code_point << 6) | (cont & 0x3f);
    }
    if (code_point < min_value || code_point > 0x10ffff ||
        (code_point >= 0xd800 && code_point <= 0xdfff)) {
      return i;
    }
    i += length;
  }
  return npos;
}

}  // namespace

void run_session(std::istream& in, std::ostream& out, AnalysisService& service,
                 const SessionOptions& options) {
  Session session{out, options};
  // Hello line: the first thing a client reads names the protocol and its
  // version, so schema drift is detectable before any request is sent.
  {
    Json hello;
    hello.set("hello", "unicon-serve");
    hello.set("version", kProtocolVersion);
    session.write_line(hello);
  }
  const auto stop_requested = [&options] {
    return options.stop != nullptr && *options.stop != 0;
  };
  std::string line;
  while (!stop_requested()) {
    const ReadLine status = read_bounded_line(in, line, options.max_line_bytes);
    if (status == ReadLine::Eof) break;
    if (status == ReadLine::Oversized) {
      session.write_line(error_json(
          "", ErrorCode::Parse,
          "request line exceeds the " + std::to_string(options.max_line_bytes) + "-byte limit"));
      continue;
    }
    if (line.empty()) continue;
    std::string id;
    try {
      if (line.find('\0') != std::string::npos) {
        throw ParseError("request line contains a NUL byte");
      }
      if (const std::size_t at = first_invalid_utf8(line); at != std::string_view::npos) {
        throw ParseError("request line is not valid UTF-8 (first bad byte at offset " +
                         std::to_string(at) + ")");
      }
      const Json request = Json::parse(line);
      if (!request.is_object()) {
        throw ParseError(std::string("request must be a JSON object, got ") +
                         json_type_name(request.type()));
      }
      id = field_string(request, "", "id", "");
      const std::string op = field_string(request, "", "op", "query");

      if (op == "query") {
        QueryRequest query = parse_query(request, options);
        const bool wait = field_bool(request, "", "wait", true);
        if (wait) {
          session.write_line(response_json(service.query(std::move(query)), options.timing));
        } else {
          {
            std::lock_guard<std::mutex> lock(session.mutex);
            ++session.outstanding;
          }
          // Ack before submitting: a fast worker may answer inside
          // submit()'s window, and the protocol promises the accepted
          // line always precedes its result line.
          Json accepted = envelope(id);
          accepted.set("ok", true);
          accepted.set("accepted", true);
          session.write_line(accepted);
          const bool timing = options.timing;
          service.submit(std::move(query), [&session, timing](QueryResponse r) {
            session.finish_async(response_json(r, timing));
          });
        }
      } else if (op == "cancel") {
        reject_unknown_fields(request, "", {"id", "op", "target"});
        const std::string target = field_string(request, "", "target", "");
        const bool cancelled = service.cancel(options.client, target);
        Json response = envelope(id);
        response.set("ok", true);
        response.set("cancelled", cancelled);
        session.write_line(response);
      } else if (op == "stats") {
        reject_unknown_fields(request, "", {"id", "op"});
        Json response = envelope(id);
        response.set("ok", true);
        response.set("stats", stats_json(service.stats()));
        session.write_line(response);
      } else if (op == "shutdown") {
        reject_unknown_fields(request, "", {"id", "op"});
        session.drain();
        Json response = envelope(id);
        response.set("ok", true);
        response.set("bye", true);
        session.write_line(response);
        return;
      } else {
        throw ParseError("unknown op '" + op + "'");
      }
    } catch (const Error& e) {
      session.write_line(error_json(id, e.code(), e.what()));
    } catch (const std::bad_alloc&) {
      session.write_line(
          error_json(id, ErrorCode::OutOfMemory, "allocation failure (std::bad_alloc)"));
    } catch (const std::exception& e) {
      session.write_line(error_json(id, ErrorCode::Internal, e.what()));
    }
  }
  session.drain();
}

}  // namespace unicon::server
