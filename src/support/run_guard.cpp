#include "support/run_guard.hpp"

#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace unicon {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::Converged: return "converged";
    case RunStatus::DeadlineExceeded: return "deadline-exceeded";
    case RunStatus::MemoryBudgetExceeded: return "mem-budget-exceeded";
    case RunStatus::Cancelled: return "cancelled";
  }
  return "converged";
}

ErrorCode run_status_code(RunStatus status) {
  switch (status) {
    case RunStatus::Converged: return ErrorCode::Ok;
    case RunStatus::DeadlineExceeded: return ErrorCode::Deadline;
    case RunStatus::MemoryBudgetExceeded: return ErrorCode::MemoryBudget;
    case RunStatus::Cancelled: return ErrorCode::Cancelled;
  }
  return ErrorCode::Internal;
}

void RunGuard::set_deadline(double seconds) {
  if (seconds <= 0.0) {
    has_deadline_ = false;
    return;
  }
  has_deadline_ = true;
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
}

void RunGuard::set_memory_budget(std::uint64_t bytes) { memory_budget_ = bytes; }

void RunGuard::request_cancel() {
  // Async-signal-safe: two lock-free stores, no locks, no allocation.
  cancel_requested_.store(true, std::memory_order_relaxed);
  stop_.store(true, std::memory_order_release);
  int expected = static_cast<int>(RunStatus::Converged);
  status_.compare_exchange_strong(expected, static_cast<int>(RunStatus::Cancelled),
                                  std::memory_order_acq_rel);
}

void RunGuard::cancel_after_polls(std::uint64_t n) { cancel_at_poll_ = n; }

void RunGuard::set_checkpoint(CheckpointFn fn, std::uint64_t stride) {
  checkpoint_fn_ = std::move(fn);
  checkpoint_stride_ = stride > 0 ? stride : 1;
}

void RunGuard::trip(RunStatus status) {
  int expected = static_cast<int>(RunStatus::Converged);
  status_.compare_exchange_strong(expected, static_cast<int>(status),
                                  std::memory_order_acq_rel);
  stop_.store(true, std::memory_order_release);
}

bool RunGuard::violated_now() {
  if (cancel_requested_.load(std::memory_order_relaxed)) {
    trip(RunStatus::Cancelled);
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    trip(RunStatus::DeadlineExceeded);
    return true;
  }
  if (memory_budget_ != 0 && memory_in_use() > static_cast<std::int64_t>(memory_budget_)) {
    trip(RunStatus::MemoryBudgetExceeded);
    return true;
  }
  return false;
}

RunStatus RunGuard::poll() {
  const std::uint64_t n = poll_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (cancel_at_poll_ != 0 && n >= cancel_at_poll_) trip(RunStatus::Cancelled);
  if (!stop_.load(std::memory_order_acquire)) violated_now();
  return status();
}

bool RunGuard::should_abort_sweep() {
  if (stop_.load(std::memory_order_relaxed)) return true;
  // Evaluating the deadline needs a clock read, which can be a full syscall
  // on some hosts.  Decimate it per thread so the common probe is a single
  // relaxed load; a violation is still observed within 8 probes (~32k
  // states), far inside one sweep.  An aborted sweep discards its partial
  // output entirely, so the probe cadence never affects results.
  thread_local std::uint32_t decimate = 0;
  if ((++decimate & 7u) != 0) return false;
  return violated_now();
}

void RunGuard::check(const char* stage) {
  const RunStatus st = poll();
  if (st == RunStatus::Converged) return;
  throw BudgetError(run_status_code(st),
                    std::string(stage) + ": " + run_status_name(st));
}

void RunGuard::checkpoint(const char* stage, std::uint64_t step, std::uint64_t planned,
                          double residual_bound, std::span<double> values) {
  if (!checkpoint_fn_) return;
  if (checkpoint_stride_ > 1 && step % checkpoint_stride_ != 0) return;
  RunCheckpoint cp;
  cp.stage = stage;
  cp.step = step;
  cp.planned = planned;
  cp.residual_bound = residual_bound;
  cp.values = values;
  checkpoint_fn_(cp);
}

// ---------------------------------------------------------------------------
// Global allocation accounting.
//
// The replaced operator new/delete below touch static atomics only.  When
// no MemoryAccountingScope is alive the hook is a single relaxed load and
// branch; otherwise net live bytes (glibc: the true usable size of each
// block, elsewhere: the requested size, with frees of unknown-size blocks
// uncounted) go to the process-wide counter the active scope owns, and the
// armed Nth-allocation fault (if any) is evaluated *before* the underlying
// malloc, so the failing call never allocates.  The hook never dereferences
// a guard: a thread that saw the scope active may still count after the
// scope ended, and its bytes then land in a static counter (at worst in
// the next scope's count), never in a guard another thread destroyed.
// ---------------------------------------------------------------------------

namespace {

/// The guard of the active scope: its identity only, compared and never
/// dereferenced.  Null while no scope is alive.
std::atomic<const RunGuard*> g_mem_guard{nullptr};
/// Net live bytes counted since the active scope opened.
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_fail_at{0};

/// True only on the thread that constructed the active scope.  Fault
/// counting and firing are confined to this thread: byte accounting stays
/// process-wide (a budget bounds the whole solve), but the armed Nth
/// allocation must never fail an allocation made by an unrelated thread —
/// in a multi-worker server a concurrent clean request would otherwise
/// absorb another request's injected bad_alloc.
thread_local bool t_scope_owner = false;

inline std::size_t block_size(void* p, std::size_t requested) {
#if defined(__GLIBC__)
  (void)requested;
  return malloc_usable_size(p);
#else
  return requested;
#endif
}

/// Pre-malloc hook: counts the allocation and fires the armed fault.
/// Returns false when the allocation must fail (nothrow paths).  Only the
/// scope-owning thread counts toward (and can trip) the armed fault, so
/// the Nth allocation is deterministic for that thread regardless of what
/// other threads allocate concurrently.
inline bool account_before(bool& counting) {
  counting = g_mem_guard.load(std::memory_order_relaxed) != nullptr;
  if (!counting || !t_scope_owner) return true;
  const std::uint64_t n = g_alloc_count.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t fail_at = g_fail_at.load(std::memory_order_relaxed);
  return fail_at == 0 || n != fail_at;
}

inline void account_after(bool counting, void* p, std::size_t requested) {
  if (counting && p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(block_size(p, requested)),
                           std::memory_order_relaxed);
  }
}

inline void* guarded_alloc(std::size_t size, std::size_t align, bool nothrow) {
  bool counting = false;
  if (!account_before(counting)) {
    if (nothrow) return nullptr;
    throw std::bad_alloc();
  }
  const std::size_t request = size > 0 ? size : 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(request);
  } else if (posix_memalign(&p, align, request) != 0) {
    p = nullptr;
  }
  if (p == nullptr) {
    if (nothrow) return nullptr;
    throw std::bad_alloc();
  }
  account_after(counting, p, request);
  return p;
}

inline void guarded_free(void* p, std::size_t requested) {
  if (p == nullptr) return;
  if (g_mem_guard.load(std::memory_order_relaxed) != nullptr) {
#if defined(__GLIBC__)
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(block_size(p, requested)),
                           std::memory_order_relaxed);
#else
    if (requested > 0) {
      g_live_bytes.fetch_sub(static_cast<std::int64_t>(requested), std::memory_order_relaxed);
    }
#endif
  }
  std::free(p);
}

}  // namespace

std::int64_t RunGuard::memory_in_use() const {
  return g_mem_guard.load(std::memory_order_acquire) == this
             ? g_live_bytes.load(std::memory_order_relaxed)
             : 0;
}

MemoryAccountingScope::MemoryAccountingScope(RunGuard& guard) {
  const RunGuard* expected = nullptr;
  if (!g_mem_guard.compare_exchange_strong(expected, &guard, std::memory_order_acq_rel)) {
    // The CAS comes first so a rejected nested scope leaves the active
    // scope's counters untouched.
    throw ModelError("MemoryAccountingScope: another scope is already active");
  }
  g_live_bytes.store(0, std::memory_order_relaxed);
  g_alloc_count.store(0, std::memory_order_relaxed);
  t_scope_owner = true;
}

MemoryAccountingScope::~MemoryAccountingScope() {
  t_scope_owner = false;
  g_mem_guard.store(nullptr, std::memory_order_release);
  g_fail_at.store(0, std::memory_order_relaxed);
  g_alloc_count.store(0, std::memory_order_relaxed);
}

void arm_allocation_failure(std::uint64_t nth) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_fail_at.store(nth, std::memory_order_relaxed);
}

std::uint64_t accounted_allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace unicon

// ---------------------------------------------------------------------------
// Replaced global allocation functions.  All forms funnel into
// guarded_alloc/guarded_free so accounting and fault injection see every
// C++ heap allocation in the process.
// ---------------------------------------------------------------------------

void* operator new(std::size_t size) {
  return unicon::guarded_alloc(size, alignof(std::max_align_t), /*nothrow=*/false);
}
void* operator new[](std::size_t size) {
  return unicon::guarded_alloc(size, alignof(std::max_align_t), /*nothrow=*/false);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return unicon::guarded_alloc(size, alignof(std::max_align_t), /*nothrow=*/true);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return unicon::guarded_alloc(size, alignof(std::max_align_t), /*nothrow=*/true);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return unicon::guarded_alloc(size, static_cast<std::size_t>(align), /*nothrow=*/false);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return unicon::guarded_alloc(size, static_cast<std::size_t>(align), /*nothrow=*/false);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return unicon::guarded_alloc(size, static_cast<std::size_t>(align), /*nothrow=*/true);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return unicon::guarded_alloc(size, static_cast<std::size_t>(align), /*nothrow=*/true);
}

void operator delete(void* p) noexcept { unicon::guarded_free(p, 0); }
void operator delete[](void* p) noexcept { unicon::guarded_free(p, 0); }
void operator delete(void* p, std::size_t size) noexcept { unicon::guarded_free(p, size); }
void operator delete[](void* p, std::size_t size) noexcept { unicon::guarded_free(p, size); }
void operator delete(void* p, const std::nothrow_t&) noexcept { unicon::guarded_free(p, 0); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { unicon::guarded_free(p, 0); }
void operator delete(void* p, std::align_val_t) noexcept { unicon::guarded_free(p, 0); }
void operator delete[](void* p, std::align_val_t) noexcept { unicon::guarded_free(p, 0); }
void operator delete(void* p, std::size_t size, std::align_val_t) noexcept {
  unicon::guarded_free(p, size);
}
void operator delete[](void* p, std::size_t size, std::align_val_t) noexcept {
  unicon::guarded_free(p, size);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  unicon::guarded_free(p, 0);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  unicon::guarded_free(p, 0);
}
