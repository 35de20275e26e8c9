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

class WorkerPool;

/// Pool sized for @p rows rows of work: resolve_threads(@p threads) capped
/// at max(rows, 1), so tiny models never oversubscribe.
WorkerPool make_worker_pool(unsigned threads, std::size_t rows);

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
