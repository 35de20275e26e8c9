// Cooperative execution control for long-running analyses.
//
// A RunGuard bundles a wall-clock deadline, a heap budget, and a
// cancellation token behind one cheap polling interface.  Stages poll at
// natural boundaries (per value-iteration step, per refinement round, per
// block of explored states); the first violation wins and is sticky, so
// every thread of a parallel sweep observes the same outcome and the sweep
// stops within one barrier.
//
// Two consumption styles:
//   - Solvers with a soundness story (Algorithm 1, the uniformized CTMC
//     sweeps) call poll()/should_abort_sweep() and, on a stop, return a
//     *partial* result tagged with RunStatus and a residual bound derived
//     from the unconsumed Poisson window mass.
//   - Structural stages that cannot degrade (composition, bisimulation,
//     transform) call check(stage), which throws a typed BudgetError.
//
// Guards are passed as nullable pointers through options structs; a null
// guard costs one branch per polling site, keeping unguarded runs
// bit-identical to pre-guard behaviour.
//
// Memory accounting hooks the global allocator (operator new/delete are
// replaced in run_guard.cpp).  Accounting is off unless a
// MemoryAccountingScope is alive, in which case net live bytes allocated
// inside the scope are charged against the guard's budget.  The hook
// touches only static atomics, never a guard: the active scope owns one
// process-wide live-byte counter, and a guard reads it only while its own
// scope is the active one, so an allocation racing a scope's end cannot
// write into a guard that is already gone.  The same hook powers the
// fault-injection harness's Nth-allocation failure.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>

#include "support/errors.hpp"

namespace unicon {

/// Terminal state of a guarded run.  Converged means "ran to completion";
/// the other three identify which budget fired first.
enum class RunStatus : int {
  Converged = 0,
  DeadlineExceeded = 1,
  MemoryBudgetExceeded = 2,
  Cancelled = 3,
};

/// Short stable identifier ("converged", "deadline-exceeded", ...).
const char* run_status_name(RunStatus status);

/// Maps a non-Converged status to its ErrorCode (Deadline / MemoryBudget /
/// Cancelled); Converged maps to Ok.
ErrorCode run_status_code(RunStatus status);

/// Snapshot handed to the checkpoint callback at iteration boundaries.
/// `values` is the solver's live iterate; it is writable so a checkpoint
/// consumer can persist it for resume — and so the fault-injection harness
/// can poison it deterministically.
struct RunCheckpoint {
  const char* stage = "";        ///< e.g. "timed_reachability"
  std::uint64_t step = 0;        ///< iterations executed so far
  std::uint64_t planned = 0;     ///< total iterations planned
  double residual_bound = 0.0;   ///< sound error bound if stopped here
  std::span<double> values;      ///< live iterate (writable)
};

class RunGuard {
 public:
  using CheckpointFn = std::function<void(const RunCheckpoint&)>;

  RunGuard() = default;
  RunGuard(const RunGuard&) = delete;
  RunGuard& operator=(const RunGuard&) = delete;

  /// Arms a wall-clock deadline @p seconds from now (<= 0 disarms).
  void set_deadline(double seconds);

  /// Arms a heap budget in bytes (0 disarms).  Charged only while a
  /// MemoryAccountingScope for this guard is alive; the budget bounds net
  /// live bytes allocated inside the scope, not the process RSS.
  void set_memory_budget(std::uint64_t bytes);

  /// Requests cooperative cancellation.  Async-signal-safe (stores to
  /// lock-free atomics only), so it may be called from a SIGINT handler.
  void request_cancel();

  /// Deterministic cancellation for tests/fault plans: the @p n-th future
  /// call to poll() (1-based) cancels the run.  Worker-thread sweep checks
  /// do not advance this counter, so the trigger point does not depend on
  /// thread interleaving.  0 disarms.
  void cancel_after_polls(std::uint64_t n);

  /// Installs a checkpoint callback invoked by solvers every @p stride
  /// successful polls (from the coordinating thread only).
  void set_checkpoint(CheckpointFn fn, std::uint64_t stride = 1);

  /// Coordinating-thread poll at an iteration boundary.  Returns Converged
  /// while the run may continue; otherwise the sticky terminal status.
  RunStatus poll();

  /// Cheap worker-side check usable from any thread, at sub-iteration
  /// granularity.  Evaluates deadline/memory but never the deterministic
  /// poll counter.  True once the run must stop.
  bool should_abort_sweep();

  /// True once any budget fired (sticky; acquire load only).
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Terminal status so far (Converged while still running).
  RunStatus status() const {
    return static_cast<RunStatus>(status_.load(std::memory_order_acquire));
  }

  /// Poll-and-throw for structural stages: on a stop, throws BudgetError
  /// with run_status_code() and a message naming @p stage.
  void check(const char* stage);

  /// True when a checkpoint callback is installed and due at @p step — lets
  /// solvers skip computing checkpoint arguments (the residual bound costs
  /// a pass over the Poisson window) otherwise.
  bool wants_checkpoint(std::uint64_t step) const {
    return checkpoint_fn_ != nullptr &&
           (checkpoint_stride_ <= 1 || step % checkpoint_stride_ == 0);
  }

  /// Publishes a checkpoint if a callback is installed and the stride is
  /// due.  Coordinating thread only.
  void checkpoint(const char* stage, std::uint64_t step, std::uint64_t planned,
                  double residual_bound, std::span<double> values);

  /// Net live bytes counted by the active accounting scope when that scope
  /// belongs to this guard; 0 otherwise.  May be transiently negative when
  /// memory allocated before the scope is freed inside it.
  std::int64_t memory_in_use() const;

  /// Number of coordinating-thread polls so far (deterministic).
  std::uint64_t polls() const { return poll_count_.load(std::memory_order_relaxed); }

 private:
  /// Evaluates deadline/memory/cancel now; latches the first violation.
  bool violated_now();
  /// Latches @p status if no status is set yet (first setter wins).
  void trip(RunStatus status);

  std::atomic<bool> stop_{false};
  std::atomic<int> status_{static_cast<int>(RunStatus::Converged)};
  std::atomic<bool> cancel_requested_{false};
  std::atomic<std::uint64_t> poll_count_{0};
  std::uint64_t cancel_at_poll_ = 0;  // 0 = disarmed
  std::uint64_t memory_budget_ = 0;   // bytes; 0 = disarmed
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  CheckpointFn checkpoint_fn_;
  std::uint64_t checkpoint_stride_ = 1;
};

/// RAII: while alive, global operator new/delete count net live bytes
/// (process-wide) in a counter that @p guard reads as memory_in_use().  At
/// most one scope may be active at a time — nesting throws ModelError.
/// Destruction detaches the hook; @p guard then reads 0.
class MemoryAccountingScope {
 public:
  explicit MemoryAccountingScope(RunGuard& guard);
  ~MemoryAccountingScope();

  MemoryAccountingScope(const MemoryAccountingScope&) = delete;
  MemoryAccountingScope& operator=(const MemoryAccountingScope&) = delete;
};

/// Fault-injection hook: while a MemoryAccountingScope is active, the
/// @p nth accounted allocation (1-based, counted from arming) throws
/// std::bad_alloc.  0 disarms.  Only allocations made by the thread that
/// opened the scope count toward (or can trip) the fault — byte
/// accounting stays process-wide, but an injected failure can never land
/// on an unrelated thread's allocation — so the failing call site is
/// deterministic for the owning thread's serial code.
void arm_allocation_failure(std::uint64_t nth);

/// Scope-owner-thread allocations accounted since the active scope was
/// opened (0 when idle).
std::uint64_t accounted_allocations();

}  // namespace unicon
