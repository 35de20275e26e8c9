#include "server/service.hpp"

#include <algorithm>
#include <cstdio>
#include <future>
#include <limits>
#include <new>
#include <optional>
#include <utility>

#include "ctmc/transient.hpp"
#include "server/snapshot.hpp"
#include "support/errors.hpp"

namespace unicon::server {

AnalysisService::AnalysisService(ServiceOptions options)
    : options_(options), cache_(options.cache_budget) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AnalysisService::~AnalysisService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::string AnalysisService::solve_key_of(const std::string& source_key,
                                          const QueryRequest& request) {
  char params[128];
  // %a renders epsilon exactly, so keys never merge across precisions
  // that happen to print alike in decimal.
  std::snprintf(params, sizeof params, "\n%d|%a|%s|%s|%d|%u",
                static_cast<int>(request.objective), request.epsilon,
                backend_name(request.backend), truncation_name(request.truncation),
                request.locking ? 1 : 0, request.threads);
  return content_hash({source_key, params});
}

void AnalysisService::submit(QueryRequest request, Callback done) {
  auto job = std::make_shared<Job>();
  // Per-request execution control pins the guard to this job alone; a
  // fault plan additionally must never share a batch — a chaos-injected
  // fault may only ever damage the answer of the request that asked for
  // it, never a clean identical co-passenger's.
  const bool coalescible = request.deadline == 0.0 && !request.has_fault_plan();
  // The one pass over the source: the cache resolves by this key, and the
  // coalescing key extends it with the solve parameters.
  job->source_key =
      ModelCache::source_key(request.kind, request.source, request.labels, request.goal_name);
  job->solve_key = coalescible ? solve_key_of(job->source_key, request) : std::string();
  job->request = std::move(request);
  job->done = std::move(done);

  std::optional<QueryResponse> rejection;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    if (stopping_ || draining_ || pending_ >= options_.max_pending) {
      QueryResponse response;
      response.id = job->request.id;
      response.error = ErrorCode::Overloaded;
      response.message = stopping_    ? "service is shutting down"
                         : draining_ ? "service is draining (shutdown in progress)"
                                     : "queue full (" + std::to_string(options_.max_pending) +
                                           " pending requests)";
      response.retry_after_ms = retry_hint_ms_locked();
      ++stats_.rejected;
      ++stats_.completed;
      rejection = std::move(response);
    } else {
      queues_[job->request.client].push_back(job);
      index_[{job->request.client, job->request.id}] = job;
      ++pending_;
    }
  }
  if (rejection.has_value()) {
    job->done(std::move(*rejection));
    return;
  }
  work_ready_.notify_one();
}

QueryResponse AnalysisService::query(QueryRequest request) {
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  submit(std::move(request), [&promise](QueryResponse r) { promise.set_value(std::move(r)); });
  return future.get();
}

bool AnalysisService::cancel(const std::string& client, const std::string& id) {
  JobPtr queued_job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find({client, id});
    if (it == index_.end()) return false;
    JobPtr job = it->second;
    job->cancelled = true;
    if (job->group != nullptr) {
      // Running: the shared guard may only stop once every coalesced
      // member wants out; the member itself is answered Cancelled by the
      // executing worker either way.
      Group& group = *job->group;
      if (++group.cancelled_members == group.members.size()) group.guard.request_cancel();
      return true;
    }
    // Still queued: unlink and answer directly.
    auto& queue = queues_[job->request.client];
    for (auto q = queue.begin(); q != queue.end(); ++q) {
      if (q->get() == job.get()) {
        queue.erase(q);
        break;
      }
    }
    if (queue.empty()) queues_.erase(job->request.client);
    --pending_;
    index_.erase(it);
    ++stats_.cancelled;
    ++stats_.completed;
    job->delivered = true;
    // A queued cancel can remove the last outstanding job; a drainer
    // blocked in wait_drained() must see that, not sleep forever.
    if (pending_ == 0 && active_ == 0) drained_.notify_all();
    queued_job = std::move(job);
  }
  QueryResponse response;
  response.id = queued_job->request.id;
  response.error = ErrorCode::Cancelled;
  response.message = "cancelled while queued";
  response.seconds = queued_job->queued.seconds();
  queued_job->done(std::move(response));
  return true;
}

std::vector<AnalysisService::JobPtr> AnalysisService::pop_group_locked() {
  std::vector<JobPtr> members;
  if (queues_.empty()) return members;

  // Fair share: rotate to the client after the last one served.
  auto it = queues_.upper_bound(rr_cursor_);
  if (it == queues_.end()) it = queues_.begin();
  rr_cursor_ = it->first;

  JobPtr seed = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  --pending_;
  members.push_back(seed);

  if (seed->solve_key.empty()) return members;

  // Coalesce same-key jobs from every bucket (their results are
  // bit-identical inside one batch solve, see reachability.hpp).
  for (auto bucket = queues_.begin();
       bucket != queues_.end() && members.size() < options_.max_batch;) {
    auto& queue = bucket->second;
    for (auto q = queue.begin(); q != queue.end() && members.size() < options_.max_batch;) {
      if ((*q)->solve_key == seed->solve_key) {
        members.push_back(*q);
        q = queue.erase(q);
        --pending_;
      } else {
        ++q;
      }
    }
    bucket = queue.empty() ? queues_.erase(bucket) : std::next(bucket);
  }
  return members;
}

void AnalysisService::worker_loop() {
  while (true) {
    Group group;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || pending_ > 0; });
      if (pending_ == 0 && stopping_) return;
      group.members = pop_group_locked();
      if (group.members.empty()) continue;
      for (const JobPtr& job : group.members) {
        job->group = &group;
        if (job->cancelled) ++group.cancelled_members;
      }
      if (group.cancelled_members == group.members.size()) group.guard.request_cancel();
      active_ += group.members.size();
      ++stats_.batches;
      stats_.coalesced += group.members.size() - 1;
    }
    execute_group(group);
  }
}

std::uint64_t AnalysisService::retry_hint_ms_locked() const {
  // Expected wait = groups ahead of the newcomer, spread over the worker
  // pool, each costing roughly the recent batch average.  0.1 s stands in
  // until the first batch lands; clamped so a pathological EWMA can never
  // tell clients to hammer the server or to go away for hours.
  const double per_batch = ewma_batch_seconds_ > 0.0 ? ewma_batch_seconds_ : 0.1;
  const double groups_ahead =
      static_cast<double>(pending_ + active_) / static_cast<double>(options_.workers) + 1.0;
  const double ms = per_batch * groups_ahead * 1000.0;
  return static_cast<std::uint64_t>(std::clamp(ms, 100.0, 60000.0));
}

void AnalysisService::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  work_ready_.notify_all();
}

bool AnalysisService::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void AnalysisService::wait_drained() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return pending_ == 0 && active_ == 0; });
}

SnapshotStats AnalysisService::save_cache(const std::string& path) const {
  return save_cache_snapshot(cache_, path);
}

SnapshotStats AnalysisService::load_cache(const std::string& path) {
  return load_cache_snapshot(cache_, path);
}

void AnalysisService::deliver(const JobPtr& job, QueryResponse response) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Exactly-once: if the delivery loop already answered this job and then
    // threw (e.g. a real bad_alloc while serializing a later member's
    // response), the fail_all retry must skip it — re-delivering would
    // underflow active_ and fire the completion callback twice.
    if (job->delivered) return;
    job->delivered = true;
    job->group = nullptr;
    index_.erase({job->request.client, job->request.id});
    ++stats_.completed;
    if (response.error == ErrorCode::Cancelled) ++stats_.cancelled;
    // Retire the job *before* the callback runs: a synchronous submitter
    // that queries stats() right after its answer must see the job gone
    // (pending 0), or session stats lines become racy — the golden replay
    // byte-diffs exactly that.
    --active_;
    if (pending_ == 0 && active_ == 0) drained_.notify_all();
  }
  response.seconds = job->queued.seconds();
  job->done(std::move(response));
}

void AnalysisService::execute_group(Group& group) {
  const Job& lead_job = *group.members.front();
  const QueryRequest& lead = lead_job.request;
  Stopwatch batch_watch;

  // Per-request spans live on per-request registries only.
  std::vector<std::optional<Telemetry::Span>> spans(group.members.size());
  for (std::size_t m = 0; m < group.members.size(); ++m) {
    Telemetry* tel = group.members[m]->request.telemetry;
    if (tel != nullptr) {
      spans[m].emplace(tel->span("serve.query"));
      spans[m]->metric("times", group.members[m]->request.times.size());
      spans[m]->metric("coalesced", group.members.size());
    }
  }

  auto fail_all = [&](ErrorCode code, const std::string& message) {
    for (std::size_t m = 0; m < group.members.size(); ++m) {
      QueryResponse response;
      response.id = group.members[m]->request.id;
      response.error = code;
      response.message = message;
      response.batched_with = group.members.size();
      spans[m].reset();
      deliver(group.members[m], std::move(response));
    }
  };

  try {
    // The solver pipeline is only instrumented when it serves exactly one
    // request — a shared registry would mix clients' span trees.
    Telemetry* solo_telemetry = group.members.size() == 1 ? lead.telemetry : nullptr;

    const ModelCache::Resolved resolved =
        cache_.resolve(lead_job.source_key, lead.kind, lead.source, lead.labels, lead.goal_name,
                       &group.guard, solo_telemetry);
    const CachedModel& model = *resolved.model;

    if (lead.fault_throw) {
      // Simulated worker death: the exception unwinds through fail_all, so
      // the request is answered Internal instead of vanishing.  Fault-plan
      // jobs never coalesce, so no clean request shares this fate.
      throw std::runtime_error("fault plan: injected worker fault (fault_throw)");
    }

    // Every query is solved on the entry's goal quotient, memoized with the
    // kernel of the backend that will run.  Fetched before any fault plan
    // is armed: the quotient is shared cache state, and an injected fault
    // may only damage this request's solve.
    const CtmcGoalQuotient* chain_q = nullptr;
    const CtmdpGoalQuotient* ctmdp_q = nullptr;
    const DiscreteKernel* discrete_kernel = nullptr;
    const DenseKernel* dense_kernel = nullptr;
    if (model.is_ctmc()) {
      chain_q = &model.chain_quotient(lead.objective, solo_telemetry);
    } else {
      ctmdp_q = &model.ctmdp_quotient(lead.objective, solo_telemetry);
      if (resolve_backend(lead.backend) == Backend::Serial) {
        discrete_kernel = &model.quotient_discrete_kernel(lead.objective);
      } else {
        dense_kernel = &model.quotient_dense_kernel(lead.objective);
      }
    }

    if (lead.deadline > 0.0) {
      group.guard.set_deadline(lead.deadline);
    } else if (options_.default_deadline > 0.0) {
      group.guard.set_deadline(options_.default_deadline);
    }
    if (lead.cancel_after_polls > 0) group.guard.cancel_after_polls(lead.cancel_after_polls);
    std::optional<MemoryAccountingScope> alloc_scope;
    if (lead.fault_alloc_nth > 0) {
      // Exclusive process-global scope: concurrent alloc-fault plans throw
      // ModelError here, answered typed via fail_all.
      alloc_scope.emplace(group.guard);
      arm_allocation_failure(lead.fault_alloc_nth);
    }
    if (lead.fault_poison_step > 0) {
      group.guard.set_checkpoint(
          [n = lead.fault_poison_step, count = std::uint64_t{0}](const RunCheckpoint& cp) mutable {
            if (++count == n && !cp.values.empty()) {
              cp.values[0] = std::numeric_limits<double>::quiet_NaN();
            }
          },
          1);
    }

    std::vector<double> merged_times;
    for (const JobPtr& job : group.members) {
      merged_times.insert(merged_times.end(), job->request.times.begin(),
                          job->request.times.end());
    }

    // The answer is read at the quotient's initial state, and each horizon's
    // residual bound grows by k * d: k planned steps, each moving a value by
    // at most the lumping defect d (core/goal_quotient.hpp).
    std::vector<HorizonAnswer> answers(merged_times.size());
    if (chain_q != nullptr) {
      TransientOptions options;
      options.epsilon = lead.epsilon;
      options.backend = lead.backend;
      options.truncation = lead.truncation;
      options.locking = lead.locking;
      options.threads = lead.threads;
      options.guard = &group.guard;
      options.telemetry = solo_telemetry;
      const auto results =
          timed_reachability_batch(chain_q->model, chain_q->goal, merged_times, options);
      for (std::size_t j = 0; j < results.size(); ++j) {
        const TransientResult& r = results[j];
        answers[j] = HorizonAnswer{
            merged_times[j], r.probabilities[chain_q->model.initial()],
            r.residual_bound + static_cast<double>(r.iterations) * chain_q->defect, r.iterations,
            r.iterations_executed, r.status};
      }
    } else {
      TimedReachabilityOptions options;
      options.epsilon = lead.epsilon;
      options.objective = lead.objective;
      options.backend = lead.backend;
      options.truncation = lead.truncation;
      options.locking = lead.locking;
      options.threads = lead.threads;
      options.guard = &group.guard;
      options.telemetry = solo_telemetry;
      options.discrete_kernel = discrete_kernel;
      options.dense_kernel = dense_kernel;
      const auto results =
          timed_reachability_batch(ctmdp_q->model, ctmdp_q->goal, merged_times, options);
      for (std::size_t j = 0; j < results.size(); ++j) {
        const TimedReachabilityResult& r = results[j];
        answers[j] = HorizonAnswer{
            merged_times[j], r.values[ctmdp_q->model.initial()],
            r.residual_bound + static_cast<double>(r.iterations_planned) * ctmdp_q->defect,
            r.iterations_planned, r.iterations_executed, r.status};
      }
    }

    // Disarm the injected allocation fault the moment the solve returns:
    // an Nth allocation still pending must never fire inside the delivery
    // loop below, where deliver() has already retired earlier members and
    // the unwinding fail_all would try to answer them a second time.
    if (alloc_scope.has_value()) {
      arm_allocation_failure(0);
      alloc_scope.reset();
    }

    std::size_t offset = 0;
    for (std::size_t m = 0; m < group.members.size(); ++m) {
      const JobPtr& job = group.members[m];
      QueryResponse response;
      response.id = job->request.id;
      response.model_hash = model.canonical_hash();
      response.cache_hit = resolved.hit;
      response.batched_with = group.members.size();
      bool member_cancelled;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        member_cancelled = job->cancelled;
      }
      if (member_cancelled) {
        // The shared solve may have completed regardless (co-passengers
        // kept it alive) — the canceller still gets a Cancelled answer,
        // never another client's timing side effects.
        response.error = ErrorCode::Cancelled;
        response.message = "cancelled mid-flight";
      } else {
        response.results.assign(answers.begin() + static_cast<std::ptrdiff_t>(offset),
                                answers.begin() +
                                    static_cast<std::ptrdiff_t>(offset +
                                                                job->request.times.size()));
      }
      offset += job->request.times.size();
      if (spans[m].has_value()) {
        spans[m]->metric("cache_hit", resolved.hit ? 1 : 0);
        spans[m].reset();
      }
      deliver(job, std::move(response));
    }
  } catch (const Error& e) {
    fail_all(e.code(), e.what());
  } catch (const std::bad_alloc&) {
    fail_all(ErrorCode::OutOfMemory, "allocation failure (std::bad_alloc)");
  } catch (const std::exception& e) {
    fail_all(ErrorCode::Internal, e.what());
  }

  const double elapsed = batch_watch.seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ewma_batch_seconds_ =
        ewma_batch_seconds_ == 0.0 ? elapsed : 0.7 * ewma_batch_seconds_ + 0.3 * elapsed;
  }
}

ServiceStats AnalysisService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s = stats_;
  s.pending = pending_ + active_;
  s.draining = draining_;
  s.cache = cache_.stats();
  return s;
}

}  // namespace unicon::server
