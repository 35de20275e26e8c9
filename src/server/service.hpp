// The analysis service: a fair-share job queue over the model cache and
// the multi-horizon batch solvers.
//
// Queries arrive asynchronously (submit + completion callback).  A worker
// pool drains one *batch group* at a time:
//
//  - Fairness: pending jobs are bucketed per client and dispatched
//    round-robin across the buckets, so a client flooding the queue cannot
//    starve the others; within a bucket, FIFO.
//  - Coalescing: when a job is dispatched, other pending jobs with the
//    same solve key (model source + goal + objective + epsilon + backend +
//    truncation + locking + threads) are pulled into the same group —
//    regardless of owning client — and answered by ONE
//    timed_reachability_batch call over the concatenated time bounds.
//    The batch solver guarantees every horizon is bit-identical to its
//    independent single-t solve, so coalescing is observably invisible
//    except for latency.  Jobs carrying per-request execution control
//    (deadline or a fault plan) never coalesce: their guard must govern
//    exactly one request.
//  - Admission control: at most max_pending jobs queue; beyond that submit
//    answers immediately with ErrorCode::Overloaded (stable code 24).
//  - Cancellation: cancel(client, id) removes a queued job outright
//    (answered with Cancelled) or flags a running group member.  The
//    group's RunGuard is cancelled only once EVERY member asked to stop —
//    one client cancelling must not abort a coalesced co-passenger — and a
//    member flagged mid-flight is answered Cancelled even if the shared
//    solve ran to completion.
//
// Per-request observability: a request may carry its own Telemetry
// registry; the service opens a "serve.query" span on it (resolve +
// solve metrics).  The solver pipeline itself is only instrumented when
// the group has a single member — a shared registry across coalesced
// requests would bleed one client's spans into another's.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ctmdp/reachability.hpp"
#include "server/model_cache.hpp"
#include "support/backend.hpp"
#include "support/run_guard.hpp"
#include "support/telemetry.hpp"

namespace unicon::server {

struct QueryRequest {
  std::string client;  ///< fair-share bucket ("" = anonymous shared bucket)
  std::string id;      ///< echoed back; cancel() target, unique per client
  ModelKind kind = ModelKind::Uni;
  std::string source;  ///< model text (UNI program or .ctmdp/.tra content)
  std::string labels;  ///< .lab content (file kinds only)
  std::string goal_name = "goal";  ///< proposition to transfer (Uni only)
  std::vector<double> times;       ///< time bounds, answered in this order
  Objective objective = Objective::Maximize;
  double epsilon = 1e-6;
  Backend backend = Backend::Auto;
  /// Truncation-bound provider for the solve (part of the coalescing key:
  /// different providers may stop at different steps, so they must not
  /// share a batch).
  Truncation truncation = Truncation::Auto;
  /// On-the-fly convergence locking.  Values are bit-identical either
  /// way, but iteration counts can differ (exact-fixpoint break), so the
  /// flag is part of the coalescing key too.
  bool locking = true;
  unsigned threads = 1;
  /// Per-request wall-clock budget in seconds (0 = none).  Disables
  /// coalescing for this job.
  double deadline = 0.0;
  /// Fault plan: cancel the solve at the n-th guard poll (0 = off).
  /// Disables coalescing.
  std::uint64_t cancel_after_polls = 0;
  /// Fault plan: the n-th accounted allocation during the solve throws
  /// std::bad_alloc (0 = off).  Disables coalescing.  Accounting scopes
  /// are process-global and exclusive, so two concurrent alloc-fault
  /// requests collide (the loser is answered with ErrorCode::Model) —
  /// the chaos harness runs them one at a time.
  std::uint64_t fault_alloc_nth = 0;
  /// Fault plan: poison the live iterate with NaN at the n-th checkpoint
  /// (1-based; 0 = off).  Disables coalescing.  Exercises the solver's
  /// NaN containment — a poisoned request must fail typed (Numeric) or
  /// surface the damage in its own answer, never a co-passenger's.
  std::uint64_t fault_poison_step = 0;
  /// Fault plan: the worker executing this request throws after resolve,
  /// before the solve (simulated worker death; answered Internal).
  /// Disables coalescing.
  bool fault_throw = false;
  /// Optional per-request registry; never shared across requests.
  Telemetry* telemetry = nullptr;

  /// True when any chaos fault plan is armed.  Such a request must never
  /// coalesce: an injected fault may only ever damage its own answer.
  bool has_fault_plan() const {
    return cancel_after_polls > 0 || fault_alloc_nth > 0 || fault_poison_step > 0 || fault_throw;
  }
};

struct HorizonAnswer {
  double time = 0.0;
  double value = 0.0;  ///< probability at the model's initial state
  double residual_bound = 0.0;
  std::uint64_t iterations_planned = 0;
  std::uint64_t iterations_executed = 0;
  RunStatus status = RunStatus::Converged;
};

struct QueryResponse {
  std::string id;
  ErrorCode error = ErrorCode::Ok;
  std::string message;     ///< non-empty iff error != Ok
  std::string model_hash;  ///< canonical content hash (empty on early failure)
  bool cache_hit = false;
  /// Overloaded answers only: suggested client back-off, derived from the
  /// queue depth and an EWMA of recent batch solve times (0 otherwise).
  std::uint64_t retry_after_ms = 0;
  /// Jobs answered by the same batch solve (>= 1; 1 = not coalesced).
  std::size_t batched_with = 0;
  std::vector<HorizonAnswer> results;  ///< per requested time, input order
  double seconds = 0.0;                ///< queue + solve wall time
};

struct ServiceOptions {
  unsigned workers = 1;
  std::size_t max_pending = 256;
  std::size_t max_batch = 16;      ///< coalesced jobs per dispatch, incl. the seed
  std::uint64_t cache_budget = 0;  ///< model-cache byte budget (0 = unbounded)
  /// Safety net applied to every group that does not carry its own
  /// deadline (seconds; 0 = off).  Keeps a hostile request with an
  /// absurd horizon or epsilon from pinning a worker forever; applied at
  /// execution time, so it does not perturb coalescing keys.
  double default_deadline = 0.0;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< responses delivered, error or not
  std::uint64_t rejected = 0;    ///< admission-control Overloaded answers
  std::uint64_t cancelled = 0;   ///< jobs answered Cancelled via cancel()
  std::uint64_t batches = 0;     ///< solver dispatches
  std::uint64_t coalesced = 0;   ///< jobs that rode along in a shared batch
  std::size_t pending = 0;       ///< queued + executing jobs right now
  bool draining = false;         ///< begin_drain() was called
  CacheStats cache;
};

class AnalysisService {
 public:
  explicit AnalysisService(ServiceOptions options = {});
  /// Drains the queue (every pending job is answered) and joins workers.
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  using Callback = std::function<void(QueryResponse)>;

  /// Enqueues a query; @p done fires exactly once, from a worker thread
  /// (or inline on admission rejection).  Never throws.
  void submit(QueryRequest request, Callback done);

  /// Cancels the pending or running job (client, id).  Returns false when
  /// no such job is in flight (already answered, or never submitted).
  bool cancel(const std::string& client, const std::string& id);

  /// Synchronous convenience wrapper around submit().
  QueryResponse query(QueryRequest request);

  /// Enters drain mode: new submissions are refused with Overloaded
  /// ("service is draining"), queued and in-flight jobs still complete.
  /// Irreversible; used by the SIGTERM/SIGINT shutdown path.
  void begin_drain();
  bool draining() const;
  /// Blocks until no job is queued or executing.  Call after
  /// begin_drain() — otherwise new work may arrive while waiting.
  void wait_drained();

  /// Persists the model cache to @p path atomically (unicon-cache-v2,
  /// write-temp-then-rename; see snapshot.hpp).  Throws ModelError on I/O
  /// failure.  Safe to call while queries are running.
  SnapshotStats save_cache(const std::string& path) const;
  /// Warm-starts the model cache from @p path; missing or corrupt files
  /// degrade gracefully (see ModelCache::load_snapshot).  Never throws.
  SnapshotStats load_cache(const std::string& path);

  ServiceStats stats() const;

 private:
  struct Group;

  struct Job {
    QueryRequest request;
    Callback done;
    std::string source_key;  ///< ModelCache::source_key of the request
    std::string solve_key;   ///< empty = never coalesce
    bool cancelled = false;
    bool delivered = false;  ///< answered; deliver() is exactly-once
    Group* group = nullptr;  ///< non-null while executing
    Stopwatch queued;
  };
  using JobPtr = std::shared_ptr<Job>;

  struct Group {
    std::vector<JobPtr> members;
    RunGuard guard;
    std::size_t cancelled_members = 0;
  };

  void worker_loop();
  /// Pops the next group (fair-share seed + coalesced riders).  Requires
  /// mutex_; returns an empty group when the queue is empty.
  std::vector<JobPtr> pop_group_locked();
  void execute_group(Group& group);
  void deliver(const JobPtr& job, QueryResponse response);
  /// The coalescing key: @p source_key plus every solve parameter.
  static std::string solve_key_of(const std::string& source_key, const QueryRequest& request);
  /// Suggested client back-off for an Overloaded answer: the queue depth
  /// in worker-sized groups times the EWMA batch solve time.  Requires
  /// mutex_.
  std::uint64_t retry_hint_ms_locked() const;

  ServiceOptions options_;
  ModelCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable drained_;
  bool stopping_ = false;
  bool draining_ = false;
  std::size_t pending_ = 0;
  std::size_t active_ = 0;  ///< jobs currently inside execute_group
  /// EWMA of recent batch solve wall times (seconds) feeding the
  /// Overloaded retry hint; 0 until the first batch completes.
  double ewma_batch_seconds_ = 0.0;
  std::map<std::string, std::deque<JobPtr>> queues_;  ///< per-client FIFO
  std::string rr_cursor_;                             ///< last client served
  std::map<std::pair<std::string, std::string>, JobPtr> index_;  ///< (client, id)
  ServiceStats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace unicon::server
