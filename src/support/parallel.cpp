#include "support/parallel.hpp"

#include <algorithm>

#ifdef __linux__
#include <sched.h>
#endif

namespace unicon {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
#ifdef __linux__
  // hardware_concurrency() reports online CPUs and ignores cgroup/affinity
  // limits, which badly oversubscribes containers; the affinity mask is the
  // usable count.
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

WorkerPool make_worker_pool(unsigned threads, std::size_t rows) {
  const std::size_t cap = rows > 0 ? rows : 1;
  const std::size_t resolved = resolve_threads(threads);
  return WorkerPool(static_cast<unsigned>(resolved < cap ? resolved : cap));
}

WorkerPool::WorkerPool(unsigned threads)
    : size_(resolve_threads(threads)),
      start_(static_cast<std::ptrdiff_t>(size_)),
      done_(static_cast<std::ptrdiff_t>(size_)) {
  errors_.resize(size_);
  threads_.reserve(size_ - 1);
  try {
    for (unsigned w = 1; w < size_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    // A failed spawn (e.g. an injected allocation failure) leaves fewer
    // than size_ barrier participants alive; supply the missing arrivals
    // so the already-running workers can observe stopping_ and exit,
    // instead of deadlocking the destructor-less unwind.  Nothing waits on
    // this phase here, so its arrival token is dropped.
    stopping_ = true;
    static_cast<void>(start_.arrive(static_cast<std::ptrdiff_t>(size_ - threads_.size())));
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    throw;
  }
}

WorkerPool::~WorkerPool() {
  if (size_ > 1) {
    stopping_ = true;
    start_.arrive_and_wait();  // release workers into the stop check
    for (std::thread& t : threads_) t.join();
  }
}

namespace {

/// Contiguous chunk of [0, n) for @p worker out of @p size workers: the
/// first n % size chunks get one extra element.
std::pair<std::size_t, std::size_t> chunk(std::size_t n, unsigned worker, unsigned size) {
  const std::size_t base = n / size;
  const std::size_t extra = n % size;
  const std::size_t begin = worker * base + std::min<std::size_t>(worker, extra);
  const std::size_t end = begin + base + (worker < extra ? 1 : 0);
  return {begin, end};
}

}  // namespace

void WorkerPool::run(std::size_t n, const Sweep& fn) {
  if (size_ == 1) {
    fn(0, 0, n);
    return;
  }
  sweep_ = &fn;
  n_ = n;
  start_.arrive_and_wait();
  const auto [begin, end] = chunk(n_, 0, size_);
  try {
    (*sweep_)(0, begin, end);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  done_.arrive_and_wait();
  sweep_ = nullptr;
  for (std::exception_ptr& error : errors_) {
    if (error) {
      std::exception_ptr first = error;
      for (std::exception_ptr& e : errors_) e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void WorkerPool::worker_loop(unsigned worker) {
  for (;;) {
    start_.arrive_and_wait();
    if (stopping_) return;
    const auto [begin, end] = chunk(n_, worker, size_);
    try {
      (*sweep_)(worker, begin, end);
    } catch (...) {
      errors_[worker] = std::current_exception();
    }
    done_.arrive_and_wait();
  }
}

}  // namespace unicon
