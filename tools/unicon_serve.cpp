// unicon_serve — the analysis server.
//
// Usage:
//   unicon_serve [--socket PATH] [--workers N] [--max-pending N]
//                [--max-batch N] [--cache-budget BYTES[K|M|G]]
//                [--snapshot PATH] [--max-line BYTES[K|M|G]]
//                [--io-timeout SECONDS] [--default-deadline SECONDS]
//                [--enable-fault-plans] [--no-timing] [--client NAME]
//
// Speaks newline-delimited JSON (one request/response object per line, see
// server/server.hpp for the schema; failures reuse the unicon_check
// --json-errors error object).  By default a single session is served over
// stdin/stdout — `unicon_serve < queries.jsonl` is a batch evaluator, and
// the golden-replay CI job diffs exactly that (with --no-timing so the
// "seconds" fields stay constant).  With --socket an AF_UNIX listener is
// bound at PATH and every connection gets its own session thread; all
// sessions share one AnalysisService, so the model cache, fair-share
// queue, coalescing and admission control work across clients.
//
// Robustness controls:
//   --snapshot PATH     warm-start the model cache from PATH at boot
//                       (missing/corrupt/old-format files degrade to a
//                       cold start) and persist it atomically on shutdown.
//   --max-line BYTES    per-request line cap (default 8M); longer lines
//                       are answered with a parse error, never buffered.
//   --io-timeout SECS   socket read/write timeout — connections idle (or
//                       too slow to accept their responses) for this long
//                       are evicted.  0 = never (default).
//   --default-deadline  wall-clock cap applied to every query that does
//                       not set its own "deadline", so one hostile request
//                       cannot pin a worker forever.  0 = off (default).
//   --enable-fault-plans
//                       accept chaos fault-plan fields (fault_alloc_nth,
//                       fault_poison_step, fault_throw) in query
//                       envelopes.  Off by default: fault plans are for
//                       chaos testing a server you own, not something an
//                       untrusted client may send — without the flag such
//                       requests are answered with a parse error.
//
// SIGTERM/SIGINT start a graceful drain: stop accepting connections and
// requests, finish in-flight queries, flush the cache snapshot and a final
// stats line to stderr, then exit; a second signal exits immediately
// (status 128+signo).
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "server/server.hpp"
#include "server/service.hpp"
#include "server/snapshot.hpp"
#include "support/errors.hpp"

using namespace unicon;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: unicon_serve [--socket PATH] [--workers N] [--max-pending N]\n"
               "                    [--max-batch N] [--cache-budget BYTES[K|M|G]]\n"
               "                    [--snapshot PATH] [--max-line BYTES[K|M|G]]\n"
               "                    [--io-timeout SECONDS] [--default-deadline SECONDS]\n"
               "                    [--enable-fault-plans] [--no-timing] [--client NAME]\n");
  std::exit(2);
}

std::uint64_t parse_count(const char* arg, const char* what) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0' || value == 0) {
    std::fprintf(stderr, "error: %s must be a positive integer, got '%s'\n", what, arg);
    std::exit(2);
  }
  return value;
}

double parse_seconds(const char* arg, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || !(value >= 0.0)) {
    std::fprintf(stderr, "error: %s must be a non-negative number of seconds, got '%s'\n", what,
                 arg);
    std::exit(2);
  }
  return value;
}

std::uint64_t parse_bytes(const char* arg, const char* what) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(arg, &end, 10);
  std::uint64_t scale = 1;
  if (end != arg && *end != '\0' && end[1] == '\0') {
    switch (*end) {
      case 'K': case 'k': scale = 1ull << 10; break;
      case 'M': case 'm': scale = 1ull << 20; break;
      case 'G': case 'g': scale = 1ull << 30; break;
      default: end = const_cast<char*>(arg); break;
    }
  }
  if (end == arg || (*end != '\0' && scale == 1) || value == 0) {
    std::fprintf(stderr, "error: %s must be a positive byte count, got '%s'\n", what, arg);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(value) * scale;
}

/// Minimal bidirectional streambuf over a connected socket fd, so
/// run_session's iostream interface works unchanged for --socket clients.
/// A read/write that fails (EOF, error, or an SO_RCVTIMEO/SO_SNDTIMEO
/// expiry on an evicted slow client) surfaces as stream EOF, which ends
/// the session cleanly.
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof out_);
  }
  ~FdStreambuf() override { sync(); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    const ssize_t n = ::read(fd_, in_, sizeof in_);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type c) override {
    if (sync() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

  int sync() override {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (n <= 0) return -1;
      p += n;
    }
    setp(out_, out_ + sizeof out_);
    return 0;
  }

 private:
  int fd_;
  char in_[4096];
  char out_[4096];
};

volatile std::sig_atomic_t g_stop = 0;
extern "C" void handle_stop_signal(int sig) {
  // Second signal: the drain is wedged (or the operator is impatient) —
  // exit right now with the conventional 128+signo status.  _exit is
  // async-signal-safe; nothing to unwind that a kill -9 would preserve.
  if (g_stop != 0) ::_exit(128 + sig);
  g_stop = 1;
}

/// sigaction without SA_RESTART: a SIGTERM/SIGINT must interrupt the
/// blocking accept()/read() with EINTR so the drain starts immediately —
/// glibc's std::signal would set SA_RESTART and the process would only
/// notice the signal at the next client byte.
void install_stop_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

/// Open connection fds, so the drain can shutdown(SHUT_RD) every session's
/// read side: blocked readers wake with EOF, flush their outstanding async
/// responses over the still-open write side, and exit.
struct ConnectionRegistry {
  std::mutex mutex;
  std::vector<int> fds;

  void add(int fd) {
    std::lock_guard<std::mutex> lock(mutex);
    fds.push_back(fd);
  }
  void remove(int fd) {
    std::lock_guard<std::mutex> lock(mutex);
    for (auto it = fds.begin(); it != fds.end(); ++it) {
      if (*it == fd) {
        fds.erase(it);
        break;
      }
    }
  }
  void shutdown_reads() {
    std::lock_guard<std::mutex> lock(mutex);
    for (const int fd : fds) ::shutdown(fd, SHUT_RD);
  }
};

struct ServeConfig {
  std::string snapshot_path;
  std::size_t max_line_bytes = std::size_t{8} << 20;
  double io_timeout = 0.0;
  bool timing = true;
  bool allow_fault_plans = false;
};

void apply_io_timeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

void log_stats(const server::ServiceStats& stats) {
  std::fprintf(stderr,
               "unicon_serve: final stats submitted=%llu completed=%llu rejected=%llu "
               "cancelled=%llu batches=%llu coalesced=%llu cache_entries=%zu "
               "cache_hits=%llu cache_misses=%llu\n",
               static_cast<unsigned long long>(stats.submitted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.cancelled),
               static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.coalesced), stats.cache.entries,
               static_cast<unsigned long long>(stats.cache.source_hits + stats.cache.canonical_hits),
               static_cast<unsigned long long>(stats.cache.misses));
}

/// Graceful shutdown tail shared by both serving modes: refuse new work,
/// wait out in-flight jobs, persist the cache, flush final telemetry.
void drain_and_flush(server::AnalysisService& service, const ServeConfig& config) {
  service.begin_drain();
  service.wait_drained();
  if (!config.snapshot_path.empty()) {
    try {
      const server::SnapshotStats saved = service.save_cache(config.snapshot_path);
      std::fprintf(stderr, "unicon_serve: snapshot saved to %s (%zu entries)\n",
                   config.snapshot_path.c_str(), saved.entries_written);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "unicon_serve: snapshot save failed: %s\n", e.what());
    }
  }
  log_stats(service.stats());
}

int serve_socket(const std::string& path, server::AnalysisService& service,
                 const ServeConfig& config) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "error: socket path too long: %s\n", path.c_str());
    return 2;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 16) != 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "unicon_serve: listening on %s\n", path.c_str());

  ConnectionRegistry registry;
  std::vector<std::thread> sessions;
  unsigned next_client = 0;
  while (g_stop == 0) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR && g_stop == 0) continue;  // unrelated signal
      break;  // stop signal or listener error
    }
    if (g_stop != 0) {
      ::close(conn);
      break;
    }
    apply_io_timeout(conn, config.io_timeout);
    registry.add(conn);
    const std::string client = "conn-" + std::to_string(next_client++);
    sessions.emplace_back([conn, client, &service, &config, &registry] {
      FdStreambuf buffer(conn);
      std::istream in(&buffer);
      std::ostream out(&buffer);
      server::SessionOptions options;
      options.client = client;
      options.timing = config.timing;
      options.max_line_bytes = config.max_line_bytes;
      options.stop = &g_stop;
      options.allow_fault_plans = config.allow_fault_plans;
      server::run_session(in, out, service, options);
      registry.remove(conn);
      ::close(conn);
    });
  }
  ::close(listener);
  ::unlink(path.c_str());
  // Drain: sessions blocked in read() wake with EOF, answer what they owe
  // over the still-open write side, and exit; the service refuses new
  // submissions meanwhile.
  service.begin_drain();
  registry.shutdown_reads();
  for (std::thread& session : sessions) session.join();
  drain_and_flush(service, config);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string client = "stdin";
  server::ServiceOptions options;
  options.workers = 2;
  ServeConfig config;

  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      socket_path = value();
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      options.workers = static_cast<unsigned>(parse_count(value(), "--workers"));
    } else if (std::strcmp(argv[i], "--max-pending") == 0) {
      options.max_pending = parse_count(value(), "--max-pending");
    } else if (std::strcmp(argv[i], "--max-batch") == 0) {
      options.max_batch = parse_count(value(), "--max-batch");
    } else if (std::strcmp(argv[i], "--cache-budget") == 0) {
      options.cache_budget = parse_bytes(value(), "--cache-budget");
    } else if (std::strcmp(argv[i], "--snapshot") == 0) {
      config.snapshot_path = value();
    } else if (std::strcmp(argv[i], "--max-line") == 0) {
      config.max_line_bytes = parse_bytes(value(), "--max-line");
    } else if (std::strcmp(argv[i], "--io-timeout") == 0) {
      config.io_timeout = parse_seconds(value(), "--io-timeout");
    } else if (std::strcmp(argv[i], "--default-deadline") == 0) {
      options.default_deadline = parse_seconds(value(), "--default-deadline");
    } else if (std::strcmp(argv[i], "--enable-fault-plans") == 0) {
      config.allow_fault_plans = true;
    } else if (std::strcmp(argv[i], "--no-timing") == 0) {
      config.timing = false;
    } else if (std::strcmp(argv[i], "--client") == 0) {
      client = value();
    } else {
      usage();
    }
  }

  install_stop_handlers();
  server::AnalysisService service(options);

  if (!config.snapshot_path.empty()) {
    const server::SnapshotStats loaded = service.load_cache(config.snapshot_path);
    if (loaded.old_format) {
      std::fprintf(stderr,
                   "unicon_serve: %s is an old unicon-cache-v1 snapshot (keys of an older "
                   "hash); starting cold, the shutdown save writes %s\n",
                   config.snapshot_path.c_str(), server::kCacheSnapshotMagic);
    } else if (loaded.entries_loaded > 0 || loaded.entries_corrupt > 0 || loaded.truncated) {
      std::fprintf(stderr,
                   "unicon_serve: warm start from %s: %zu entries, %zu aliases, "
                   "%zu corrupt record(s) skipped%s\n",
                   config.snapshot_path.c_str(), loaded.entries_loaded, loaded.aliases_loaded,
                   loaded.entries_corrupt, loaded.truncated ? " (snapshot truncated)" : "");
    }
  }

  if (!socket_path.empty()) return serve_socket(socket_path, service, config);

  server::SessionOptions session;
  session.client = client;
  session.timing = config.timing;
  session.max_line_bytes = config.max_line_bytes;
  session.stop = &g_stop;
  session.allow_fault_plans = config.allow_fault_plans;
  server::run_session(std::cin, std::cout, service, session);
  drain_and_flush(service, config);
  return 0;
}
