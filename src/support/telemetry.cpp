#include "support/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <utility>

#include "support/errors.hpp"
#include "support/json.hpp"

namespace unicon {

namespace {

std::string render_u64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%llu", static_cast<unsigned long long>(value));
  return buffer;
}

std::string render_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string render_seconds(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.9f", value);
  return buffer;
}

void append_indent(std::string& out, int indent) {
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

}  // namespace

void Histogram::observe(std::uint64_t sample) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  std::uint64_t cur_min = min_.load(std::memory_order_relaxed);
  while (sample < cur_min &&
         !min_.compare_exchange_weak(cur_min, sample, std::memory_order_relaxed)) {
  }
  std::uint64_t cur_max = max_.load(std::memory_order_relaxed);
  while (sample > cur_max &&
         !max_.compare_exchange_weak(cur_max, sample, std::memory_order_relaxed)) {
  }
  buckets_[std::bit_width(sample)].fetch_add(1, std::memory_order_relaxed);
}

Telemetry::Span Telemetry::span(std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  SpanNode node;
  node.name = std::move(name);
  node.start = std::chrono::steady_clock::now();
  if (!open_stack_.empty()) {
    node.parent = open_stack_.back();
    spans_[node.parent].children.push_back(id);
  }
  spans_.push_back(std::move(node));
  open_stack_.push_back(id);
  return Span(this, id);
}

void Telemetry::close_span(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanNode& node = spans_[id];
  if (!node.open) return;
  node.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - node.start).count();
  node.open = false;
  // Normally the closing span is the innermost open one; closing out of
  // order (possible during exception unwinding) just removes it wherever
  // it sits on the stack.
  for (std::size_t i = open_stack_.size(); i-- > 0;) {
    if (open_stack_[i] == id) {
      open_stack_.erase(open_stack_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void Telemetry::span_metric(std::uint32_t id, std::string_view key, std::string rendered) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].metrics.emplace_back(std::string(key), std::move(rendered));
}

void Telemetry::Span::metric(std::string_view key, double value) {
  if (telemetry_ != nullptr) telemetry_->span_metric(id_, key, render_double(value));
}

void Telemetry::Span::metric_u64(std::string_view key, std::uint64_t value) {
  if (telemetry_ != nullptr) telemetry_->span_metric(id_, key, render_u64(value));
}

void Telemetry::Span::close() {
  if (telemetry_ != nullptr) telemetry_->close_span(id_);
  telemetry_ = nullptr;
}

Counter& Telemetry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

Gauge& Telemetry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

Histogram& Telemetry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_[name];
}

void Telemetry::append_span_json(std::string& out, std::uint32_t id, int indent) const {
  const SpanNode& node = spans_[id];
  const double seconds =
      node.open
          ? std::chrono::duration<double>(std::chrono::steady_clock::now() - node.start).count()
          : node.seconds;
  append_indent(out, indent);
  out += "{\"name\": \"" + telemetry::json_escape(node.name) + "\", \"seconds\": " +
         render_seconds(seconds) + ", \"open\": " + (node.open ? "true" : "false") +
         ", \"metrics\": {";
  for (std::size_t i = 0; i < node.metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + telemetry::json_escape(node.metrics[i].first) + "\": " + node.metrics[i].second;
  }
  out += "}";
  if (node.children.empty()) {
    out += ", \"children\": []}";
    return;
  }
  out += ", \"children\": [\n";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    append_span_json(out, node.children[i], indent + 1);
    if (i + 1 < node.children.size()) out += ",";
    out += "\n";
  }
  append_indent(out, indent);
  out += "]}";
}

std::string Telemetry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out += "{\n  \"schema\": \"unicon-telemetry-v1\",\n  \"spans\": [";
  bool first = true;
  for (std::uint32_t id = 0; id < spans_.size(); ++id) {
    if (spans_[id].parent != kNoParent) continue;
    out += first ? "\n" : ",\n";
    first = false;
    append_span_json(out, id, 2);
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"counters\": {";
  first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + telemetry::json_escape(name) + "\": " + render_u64(c.value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + telemetry::json_escape(name) + "\": " + render_double(g.value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + telemetry::json_escape(name) + "\": {\"count\": " + render_u64(h.count()) +
           ", \"sum\": " + render_u64(h.sum());
    if (h.count() > 0) {
      out += ", \"min\": " + render_u64(h.min()) + ", \"max\": " + render_u64(h.max());
    }
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h.bucket(b);
      if (n == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "{\"bucket\": " + render_u64(b) + ", \"count\": " + render_u64(n) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void Telemetry::write_json(std::ostream& out) const { out << to_json(); }

bool Telemetry::write_json_file(const std::string& path) const {
  const std::string json = to_json();
  if (path == "-") {
    std::fwrite(json.data(), 1, json.size(), stderr);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write telemetry to %s\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

namespace telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

BenchRecord& BenchRecord::add(std::string key, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6f", value);
  metrics.emplace_back(std::move(key), buffer);
  return *this;
}

BenchRecord& BenchRecord::add_u64(std::string key, std::uint64_t value) {
  metrics.emplace_back(std::move(key), render_u64(value));
  return *this;
}

BenchJson::BenchJson(std::string default_path, const char* env_override) {
  const char* env = env_override != nullptr ? std::getenv(env_override) : nullptr;
  path_ = env != nullptr && env[0] != '\0' ? env : std::move(default_path);
}

void BenchJson::write() {
  if (records_.empty()) return;
  // Harnesses share files, so the file's records of every label not written
  // again are kept, in order, ahead of the new ones (values re-emitted as
  // parsed: exact, though not always as first formatted).
  std::vector<BenchRecord> merged;
  try {
    std::ifstream in(path_, std::ios::binary);
    const Json doc = in ? Json::parse(std::string(std::istreambuf_iterator<char>(in), {}))
                        : Json(JsonArray{});
    for (const Json& item : doc.as_array()) {
      const Json* label = item.find("bench");
      if (label == nullptr) throw ParseError("record without a \"bench\" label");
      BenchRecord& kept = merged.emplace_back(BenchRecord{label->as_string(), {}});
      for (const auto& [key, value] : item.as_object()) {
        if (key != "bench") kept.metrics.emplace_back(key, value.dump());
      }
    }
  } catch (const Error& e) {
    merged.clear();
    std::fprintf(stderr, "warning: replacing %s, not a BENCH record array (%s)\n",
                 path_.c_str(), e.what());
  }
  std::erase_if(merged, [&](const BenchRecord& old) {
    return std::any_of(records_.begin(), records_.end(),
                       [&](const BenchRecord& r) { return r.bench == old.bench; });
  });
  merged.insert(merged.end(), records_.begin(), records_.end());

  // Renamed over the target, so no reader ever sees a half-written file.
  const std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const BenchRecord& r = merged[i];
    std::fprintf(f, "  {\"bench\": \"%s\"", json_escape(r.bench).c_str());
    for (const auto& [key, rendered] : r.metrics) {
      std::fprintf(f, ", \"%s\": %s", json_escape(key).c_str(), rendered.c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < merged.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  if (std::fclose(f) != 0 || std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
    std::remove(tmp.c_str());
    return;
  }
  std::printf("wrote %zu records to %s\n", records_.size(), path_.c_str());
  records_.clear();
}

}  // namespace telemetry

}  // namespace unicon
