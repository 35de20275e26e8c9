// Pipeline-wide observability: a low-overhead, thread-safe metrics
// registry plus hierarchical stage spans with one JSON exporter.
//
// The pipeline (compose -> bisim -> transform -> value iteration) is
// instrumented at its natural stage boundaries; what each stage records is
// exactly what governs its cost: intermediate state-space sizes for the
// compositional stages (frontier size, product states, refinement blocks)
// and the Poisson-window truncation for the solvers (left/right bounds,
// iterations executed, early-termination step).
//
// Consumption style mirrors RunGuard: a Telemetry registry is passed as a
// nullable pointer through options structs.  A null pointer costs one
// branch per instrumentation site and keeps results bit-identical to the
// uninstrumented build; a live registry only *observes* (no arithmetic of
// any solver changes), so results are bit-identical with telemetry on or
// off, and across thread counts.
//
// Instrument costs:
//   - Counter::add is one relaxed fetch_add; hot loops batch locally and
//     add once per sweep (the <2% VI hot-loop contract of the RunGuard
//     benchmark also covers telemetry, see BM_Algorithm1Telemetry).
//   - Spans are registered under a mutex, but spans open/close at stage
//     boundaries (a handful per run), never inside loops.
//   - Handles returned by counter()/gauge()/histogram() have stable
//     addresses for the registry's lifetime and may be used lock-free from
//     any thread (e.g. one counter per WorkerPool worker).
//
// Span lifecycle: span("name") opens a child of the innermost span still
// open (registry-global stack, coordinating thread only); the returned
// RAII handle closes it with the elapsed wall time.  Stack unwinding
// closes spans on exceptions, and write_json() emits still-open spans
// with their elapsed-so-far time and "open": true — so a budget-tripped
// (RunGuard) run still flushes a truthful partial telemetry tree.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace unicon {

/// Wall-clock stopwatch — the single timing utility of the code base (the
/// telemetry clock; spans use the same steady_clock internally).
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Monotone event counter.  add() is wait-free; safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (plus a monotone-max update).  Safe from any
/// thread; concurrent set() keeps one of the written values.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to @p v if it is larger (CAS loop).
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram of non-negative integer samples.  Bucket b
/// counts samples with bit_width b, i.e. bucket 0 holds the sample 0 and
/// bucket b >= 1 holds samples in [2^(b-1), 2^b).  observe() is wait-free.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t sample);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// UINT64_MAX when no sample was observed.
  std::uint64_t min() const { return min_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// The metrics registry: named counters/gauges/histograms plus the span
/// tree.  Non-copyable; shared by pointer through options structs.
class Telemetry {
 public:
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// RAII handle for one stage span.  Move-only; closes the span (once) on
  /// destruction or close().  metric() attaches named numbers to the span
  /// in call order — integers stay integers in the JSON.
  class Span {
   public:
    Span(Span&& other) noexcept : telemetry_(other.telemetry_), id_(other.id_) {
      other.telemetry_ = nullptr;
    }
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { close(); }

    void metric(std::string_view key, double value);
    template <std::integral T>
    void metric(std::string_view key, T value) {
      metric_u64(key, static_cast<std::uint64_t>(value));
    }

    void close();

   private:
    friend class Telemetry;
    Span(Telemetry* telemetry, std::uint32_t id) : telemetry_(telemetry), id_(id) {}
    void metric_u64(std::string_view key, std::uint64_t value);
    Telemetry* telemetry_;  // null once closed / moved from
    std::uint32_t id_;
  };

  /// Opens a span named @p name as a child of the innermost open span
  /// (or as a root).  Coordinating thread only (one stage at a time).
  Span span(std::string name);

  /// Returns (creating on first use) the named instrument.  The reference
  /// stays valid and address-stable for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Serializes the whole registry as one JSON object:
  ///   {"schema": "unicon-telemetry-v1",
  ///    "spans": [{"name", "seconds", "open", "metrics": {...},
  ///               "children": [...]}, ...],
  ///    "counters": {...}, "gauges": {...},
  ///    "histograms": {"h": {"count", "sum", "min", "max",
  ///                         "buckets": [{"bucket", "count"}, ...]}}}
  /// Counters/gauges/histograms are sorted by name; spans are in start
  /// order; still-open spans carry their elapsed-so-far seconds.
  std::string to_json() const;
  void write_json(std::ostream& out) const;
  /// Writes to @p path, or to stderr when @p path is "-".  Returns false
  /// (with a warning on stderr) when the file cannot be written.
  bool write_json_file(const std::string& path) const;

 private:
  struct SpanNode {
    std::string name;
    std::uint32_t parent = kNoParent;
    std::vector<std::uint32_t> children;
    std::vector<std::pair<std::string, std::string>> metrics;  // key -> rendered number
    std::chrono::steady_clock::time_point start;
    double seconds = 0.0;
    bool open = true;
  };
  static constexpr std::uint32_t kNoParent = static_cast<std::uint32_t>(-1);

  void close_span(std::uint32_t id);
  void span_metric(std::uint32_t id, std::string_view key, std::string rendered);
  void append_span_json(std::string& out, std::uint32_t id, int indent) const;

  mutable std::mutex mutex_;
  std::vector<SpanNode> spans_;
  std::vector<std::uint32_t> open_stack_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

namespace telemetry {

/// Escapes a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

/// One benchmark record: a harness/case label plus named numeric metrics
/// in insertion order.
struct BenchRecord {
  std::string bench;

  BenchRecord& add(std::string key, double value);
  template <std::integral T>
  BenchRecord& add(std::string key, T value) {
    return add_u64(std::move(key), static_cast<std::uint64_t>(value));
  }
  BenchRecord& add_u64(std::string key, std::uint64_t value);

  std::vector<std::pair<std::string, std::string>> metrics;  // key -> rendered
};

/// The single emitter behind every BENCH_*.json file: collects records and
/// writes them as a JSON array on write() (or destruction).  Schema shared
/// by all harnesses (keys documented in README "Benchmarks"):
///   [{"bench": "<harness/case>", "<metric>": <number>, ...}, ...]
/// Integers are emitted as integers, seconds with 6 decimals.  write()
/// merges by label into the file harnesses share (a file that does not
/// parse is reported and replaced) through a temp file and a rename.  When
/// @p env_override names an environment variable and it is set non-empty,
/// its value replaces the default path.
class BenchJson {
 public:
  explicit BenchJson(std::string default_path, const char* env_override = nullptr);
  ~BenchJson() { write(); }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void record(BenchRecord r) { records_.push_back(std::move(r)); }

  /// Writes and clears the collected records; no-op when empty.
  void write();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::vector<BenchRecord> records_;
};

}  // namespace telemetry

}  // namespace unicon
