// Row-parallel sweep execution for the value-iteration hot paths.
//
// The Algorithm-1 backward iteration and the uniformized CTMC sweeps apply
// the same state-local update to every row of a sparse kernel, k(eps, E, t)
// times in a row.  A WorkerPool keeps a fixed team of threads alive across
// all iterations of one solve and hands each worker a contiguous state
// range per sweep; spawning threads per iteration would dominate the sweep
// cost for the small-to-medium models of Table 1.
//
// Determinism: each worker writes only its own slice of the output vector
// and reduces its local sup-norm delta into a dedicated padded slot, so a
// sweep's results are bit-identical for every thread count (max-reduction
// over disjoint slices is order-insensitive).  threads == 1 never spawns a
// thread and runs the sweep inline on the caller — exactly the historical
// serial path.
#pragma once

#include <barrier>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/numerics.hpp"

namespace unicon {

/// Resolves a user-facing thread-count option: 0 picks
/// hardware_concurrency (at least 1), anything else is taken as given.
unsigned resolve_threads(unsigned requested);

/// Rows a sweep worker must take off the caller to pay for its share of
/// the two barrier phases per sweep (DESIGN.md Sec. 10.5): on the
/// reference host a second worker pays from about 4,096 rows on.
inline constexpr std::size_t kSweepRowsPerWorker = 2048;

/// Team size for @p items items of work, each worker taking at least
/// @p grain of them: @p threads == 0 picks items / grain workers, at least
/// 1 and at most resolve_threads(0); any other count is taken as given,
/// capped at max(items, 1).
unsigned team_size(unsigned threads, std::size_t items, std::size_t grain);

class WorkerPool;

/// Pool of team_size(@p threads, @p items, @p grain) workers; a sweep's
/// items are its rows.
WorkerPool make_worker_pool(unsigned threads, std::size_t items,
                            std::size_t grain = kSweepRowsPerWorker);

/// A team of (size - 1) helper threads plus the calling thread.  run()
/// partitions [0, n) into size() contiguous chunks and executes
/// fn(worker, begin, end) on each worker, blocking until the sweep is done.
class WorkerPool {
 public:
  using Sweep = std::function<void(unsigned worker, std::size_t begin, std::size_t end)>;

  /// @p threads is resolved via resolve_threads(); a pool of size 1 is
  /// thread-free.
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned size() const { return size_; }

  /// Runs one sweep over [0, n).  Chunks are deterministic functions of
  /// (n, size()); workers beyond n get empty ranges.  Not reentrant.
  ///
  /// Exception safety: an exception escaping fn on any worker is captured,
  /// the sweep still completes its barrier (other workers finish their
  /// chunks), and the lowest-numbered worker's exception is rethrown here
  /// on the calling thread.  The pool stays usable afterwards.
  void run(std::size_t n, const Sweep& fn);

  /// Per-worker accumulator slot padded to its own cache line, for
  /// race-free delta reductions.
  struct alignas(64) Slot {
    double value = 0.0;
  };

  /// Max-reduction over the per-worker slots written by one sweep; NaN
  /// once any slot is NaN (latching_max).
  static double reduce_max(const std::vector<Slot>& slots) {
    double value = 0.0;
    for (const Slot& slot : slots) value = latching_max(value, slot.value);
    return value;
  }

 private:
  void worker_loop(unsigned worker);

  unsigned size_ = 1;
  std::vector<std::thread> threads_;
  std::barrier<> start_;
  std::barrier<> done_;
  const Sweep* sweep_ = nullptr;
  std::size_t n_ = 0;
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace unicon
