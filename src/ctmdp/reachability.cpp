#include "ctmdp/reachability.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>

#include "ctmdp/backend.hpp"
#include "ctmdp/scheduler.hpp"
#include "support/errors.hpp"
#include "support/fox_glynn.hpp"
#include "support/numerics.hpp"
#include "support/parallel.hpp"
#include "support/sweep.hpp"
#include "support/telemetry.hpp"

namespace unicon {

namespace {

void check_inputs(const Ctmdp& model, const BitVector& goal) {
  if (goal.size() != model.num_states()) {
    throw ModelError("timed_reachability: goal vector size mismatch");
  }
}

/// Sound per-state error bound when the backward iteration stops before
/// executing step index @p next_i, leaving the iterate q_{next_i+1} in hand.
/// Unrolling the recurrence, q_{next_i+1} weights the m-th future jump by
/// psi(m + next_i) where the completed iteration q_1 weights it by psi(m):
/// the partial iterate is a *shifted-weight* sum, not a truncated prefix,
/// so the naive "unconsumed mass" sum_{m <= next_i} psi(m) is NOT sound
/// (the fault-injection harness exhibits mid-run cancellations violating
/// it).  The per-scheduler deviation is bounded by the total weight
/// displacement plus the dropped window tail plus the outside-window
/// epsilon, capped at the trivial bound 1:
///   sum_{m=1}^{k-next_i} |psi(m) - psi(m+next_i)| + tail_mass(k-next_i+1)
///   + epsilon.
double partial_residual(const PoissonWindow& psi, std::uint64_t next_i, double epsilon) {
  if (next_i == 0) return epsilon;
  const std::uint64_t k = psi.right();
  double bound = epsilon + psi.tail_mass(k - next_i + 1);
  for (std::uint64_t m = 1; m + next_i <= k; ++m) {
    bound += std::abs(psi.psi(m) - psi.psi(m + next_i));
  }
  return std::min(bound, 1.0);
}

/// NaN-latching max over per-worker slots.  WorkerPool::reduce_max drops
/// NaN (a > comparison); the survival sup must propagate it so a poisoned
/// certificate can never certify a stop.
double reduce_max_latch(const std::vector<WorkerPool::Slot>& slots) {
  double value = 0.0;
  for (const WorkerPool::Slot& slot : slots) {
    if (!(slot.value <= value)) value = slot.value;
  }
  return value;
}

// ---------------------------------------------------------------------------
// Row engines.  An engine owns the layout of the iterate the sweep below
// double-buffers and the kernel its rows relax; everything external (resume
// and checkpoint vectors, final values) is full-state, so partial results
// interoperate across engines.  Only the serial rows record decisions, so a
// scheduler is extracted and replayed on full-state rows.  Interface:
//   rows()                      iterate length
//   kGoalFolded                 relax with G_g = psi(g) + G_{g+1} instead of psi(g)
//   relax(g, w, q, out, dec, begin, end, locked, cand, swept)
//                               one block of rows at step g; NaN-latching
//                               sup |out - q|
//   survival_start(u) / survival_step(pool, slots, u, u_next)
//                               Lyapunov survival iterate (DESIGN.md Sec. 14)
//   expose(q, G, scratch)       full-state view of an iterate (writable)
//   ingest(full, q)             loads a full-state vector, returns its goal value
//   finish(q, G, partial, r)    final values (and the resumable iterate)

/// Serial backend: a full-state iterate over DiscreteKernel relaxed by the
/// historical open-coded rows (strictly sequential per-transition
/// accumulation, bit-identical to the pre-backend solver).  Goal states keep
/// their own entries q_i = psi(i) + q_{i+1}; avoided states are pinned 0.
class SerialRows {
 public:
  static constexpr bool kGoalFolded = false;

  SerialRows(const DiscreteKernel& kernel, const BitVector& goal, const BitVector& avoid,
             bool maximize)
      : kernel_(kernel), goal_(goal), avoid_(avoid), maximize_(maximize) {}

  std::size_t rows() const { return goal_.size(); }

  double relax(std::uint64_t, double w, const double* q, double* out, std::uint64_t* dec,
               std::size_t begin, std::size_t end, const BitVector* locked,
               std::vector<StateId>* cand, std::uint64_t& swept) const {
    const DiscreteKernel& kernel = kernel_;
    const bool maximize = maximize_;
    // Word pointer hoisted: the candidate push_back is an opaque call, so
    // the compiler would otherwise re-derive it from `locked` every row.
    const std::uint64_t* const frozen = locked != nullptr ? locked->words().data() : nullptr;
    double delta = 0.0;
    std::uint64_t rows = 0;
    for (StateId s = begin; s < end; ++s) {
      if (frozen != nullptr && ((frozen[s >> 6] >> (s & 63)) & 1u)) continue;  // buffers agree
      ++rows;
      if (goal_[s]) {
        out[s] = w + q[s];
        if (dec != nullptr) dec[s] = kNoTransition;
        if (cand != nullptr && same_bits(out[s], q[s])) cand->push_back(s);
      } else if (avoided(s)) {
        out[s] = 0.0;
        if (dec != nullptr) dec[s] = kNoTransition;
        if (cand != nullptr && same_bits(0.0, q[s])) cand->push_back(s);
      } else {
        const std::uint64_t first = kernel.state_first[s];
        const std::uint64_t last = kernel.state_first[s + 1];
        double best = first == last ? 0.0 : (maximize ? -1.0 : 2.0);
        std::uint64_t best_t = kNoTransition;
        for (std::uint64_t tr = first; tr < last; ++tr) {
          const double acc = kernel.transition_value(tr, w, q);
          if (maximize ? acc > best : acc < best) {
            best = acc;
            best_t = tr;
          }
        }
        // NaN-capturing max: identical to std::max for finite deltas
        // (bit-identical results) but latches NaN, which std::max would
        // silently drop.
        const double dev = std::fabs(best - q[s]);
        if (!(dev <= delta)) delta = dev;
        out[s] = best;
        if (dec != nullptr) dec[s] = best_t;
        if (cand != nullptr && same_bits(best, q[s]) && closed(*locked, s)) cand->push_back(s);
      }
    }
    swept += rows;
    return delta;
  }

  void survival_start(std::vector<double>& u) const {
    u.assign(rows(), 0.0);
    for (StateId s = 0; s < u.size(); ++s) u[s] = (goal_[s] || avoided(s)) ? 0.0 : 1.0;
  }

  /// Advances the survival iterate u <- N u and returns sup u.  N maximizes
  /// over every transition regardless of the solve's objective:
  /// |opt_a f_a - opt_a g_a| <= max_a |f_a - g_a| for both optimizations,
  /// so the max operator dominates the displacement either one can
  /// propagate.  Goal/avoided entries stay exactly 0.
  double survival_step(WorkerPool& pool, std::vector<WorkerPool::Slot>& slots,
                       const std::vector<double>& u, std::vector<double>& u_next) const {
    pool.run(u.size(), [&](unsigned worker, std::size_t begin, std::size_t end) {
      const DiscreteKernel& kernel = kernel_;
      const double* x = u.data();
      double local = 0.0;
      for (std::size_t s = begin; s < end; ++s) {
        if (goal_[s] || (!avoid_.empty() && avoid_[s])) {
          u_next[s] = 0.0;
          continue;
        }
        const std::uint64_t first = kernel.state_first[s];
        const std::uint64_t last = kernel.state_first[s + 1];
        double best = 0.0;
        for (std::uint64_t tr = first; tr < last; ++tr) {
          const double acc = kernel.transition_value(tr, 0.0, x);
          if (!(acc <= best)) best = acc;  // NaN-latching
        }
        u_next[s] = best;
        if (!(best <= local)) local = best;
      }
      slots[worker].value = local;
    });
    return reduce_max_latch(slots);
  }

  std::vector<double>& expose(std::vector<double>& q, double, std::vector<double>&) const {
    return q;
  }
  double ingest(const std::vector<double>& full, std::vector<double>& q) const {
    q = full;  // self-assignment (a checkpoint round trip) is a no-op
    return 0.0;
  }

  void finish(std::vector<double>& q, double, bool partial, TimedReachabilityResult& r) const {
    require_finite(q, "timed_reachability");
    if (partial) r.iterate = q;  // raw iterate, resumable
    r.values = std::move(q);
    for (StateId s = 0; s < r.values.size(); ++s) {
      r.values[s] = goal_[s] ? 1.0 : clamp01(r.values[s]);
    }
  }

 protected:
  bool avoided(StateId s) const { return !avoid_.empty() && avoid_[s] && !goal_[s]; }

  /// Closure half of the locking criterion: every successor lies in
  /// locked or is the row itself.  Together with bitwise value equality
  /// (and a zero Poisson weight below the window) the row's next
  /// relaxation provably reproduces the same bits, so it can be skipped.
  bool closed(const BitVector& locked, StateId s) const {
    for (std::uint64_t tr = kernel_.state_first[s]; tr < kernel_.state_first[s + 1]; ++tr) {
      for (std::uint64_t j = kernel_.entry_first[tr]; j < kernel_.entry_first[tr + 1]; ++j) {
        const std::uint32_t c = kernel_.col[j];
        if (c != s && !locked[c]) return false;
      }
    }
    return true;
  }

  const DiscreteKernel& kernel_;
  const BitVector& goal_;
  const BitVector& avoid_;
  bool maximize_;
};

/// Replay engine: SerialRows' arithmetic with the transition a countdown table
/// names at step g instead of the best one, so a table the serial rows extracted
/// replays bit-identically.  A kNoTransition choice pins the row to 0.
class CountdownRows : public SerialRows {
 public:
  CountdownRows(const DiscreteKernel& kernel, const BitVector& goal, const BitVector& avoid,
                const CountdownScheduler& table)
      : SerialRows(kernel, goal, avoid, true), table_(table) {}

  double relax(std::uint64_t g, double w, const double* q, double* out, std::uint64_t*,
               std::size_t begin, std::size_t end, const BitVector*, std::vector<StateId>*,
               std::uint64_t& swept) const {
    double delta = 0.0;
    for (StateId s = begin; s < end; ++s) {
      if (goal_[s]) {
        out[s] = w + q[s];
        continue;
      }
      const std::uint64_t tr = table_.choice(g, s);
      out[s] = tr == kNoTransition ? 0.0 : kernel_.transition_value(tr, w, q);
      const double dev = std::fabs(out[s] - q[s]);
      if (!(dev <= delta)) delta = dev;
    }
    swept += end - begin;
    return delta;
  }

 private:
  const CountdownScheduler& table_;
};

/// Simd backends: only the dense rows (non-goal, non-avoided states) are
/// iterated, with the branching mass into B folded into the scalar goal
/// value G_i = psi(i) + G_{i+1} (see DenseKernel); the block kernels come
/// from the backend's KernelOps table.
class DenseRows {
 public:
  static constexpr bool kGoalFolded = true;

  DenseRows(const DenseKernel& kernel, Backend backend, const BitVector& goal,
            const BitVector& avoid, bool maximize)
      : kernel_(kernel),
        ops_(kernel_ops(backend)),
        view_(kernel.view()),
        goal_(goal),
        avoid_(avoid),
        maximize_(maximize) {}

  std::size_t rows() const { return kernel_.num_rows(); }

  /// With a locked set, relaxes the maximal runs of unlocked rows, found a
  /// word at a time: locked rows get no reads and no writes (the no-copy
  /// invariant keeps both buffers on their frozen bits) and contribute
  /// exactly 0 to the delta.  Per-row results are unchanged by the split —
  /// the kernels relax rows independently, as the guard blocks and worker
  /// partitions already assume.
  double relax(std::uint64_t, double gval, const double* q, double* out, std::uint64_t*,
               std::size_t begin, std::size_t end, const BitVector* locked,
               std::vector<StateId>* cand, std::uint64_t& swept) const {
    if (locked == nullptr) {
      swept += end - begin;
      return ops_.relax_rows(view_, gval, maximize_, q, out, begin, end);
    }
    double delta = 0.0;
    for (std::size_t r = locked->next_unset(begin); r < end; r = locked->next_unset(r)) {
      const std::size_t run_end = std::min(locked->next_set(r), end);
      const double d = ops_.relax_rows(view_, gval, maximize_, q, out, r, run_end);
      if (!(d <= delta)) delta = d;  // NaN-capturing max
      swept += run_end - r;
      for (std::size_t x = r; cand != nullptr && x < run_end; ++x) {
        if (same_bits(out[x], q[x]) && closed(*locked, x)) cand->push_back(x);
      }
      if (run_end == end) break;
      r = run_end;
    }
    return delta;
  }

  void survival_start(std::vector<double>& u) const { u.assign(rows(), 1.0); }

  /// Relax with zero goal weight, always maximizing, then sup-reduce the
  /// advanced iterate (relax_rows reports a delta, not a sup).
  double survival_step(WorkerPool& pool, std::vector<WorkerPool::Slot>& slots,
                       const std::vector<double>& u, std::vector<double>& u_next) const {
    pool.run(u.size(), [&](unsigned worker, std::size_t begin, std::size_t end) {
      if (begin < end) {
        ops_.relax_rows(view_, 0.0, true, u.data(), u_next.data(), begin, end);
      }
      double local = 0.0;
      for (std::size_t r = begin; r < end; ++r) {
        if (!(u_next[r] <= local)) local = u_next[r];
      }
      slots[worker].value = local;
    });
    return reduce_max_latch(slots);
  }

  /// full[s] = G for goal states, dq[row(s)] for dense states, 0 otherwise.
  std::vector<double>& expose(const std::vector<double>& dq, double goal_value,
                              std::vector<double>& full) const {
    full.resize(goal_.size());
    for (StateId s = 0; s < full.size(); ++s) full[s] = goal_[s] ? goal_value : 0.0;
    for (std::uint64_t r = 0; r < rows(); ++r) full[kernel_.dense_state[r]] = dq[r];
    return full;
  }

  /// Inverse of expose on an externally written vector (resume input,
  /// post-checkpoint iterate).  The goal value is read back from the
  /// lowest-indexed goal state: the engine keeps the goal iterate as one
  /// scalar, so a writer that splits the goal states apart is collapsed
  /// onto that representative (DESIGN.md Sec. 10.1).
  double ingest(const std::vector<double>& full, std::vector<double>& dq) const {
    for (std::uint64_t r = 0; r < rows(); ++r) dq[r] = full[kernel_.dense_state[r]];
    const std::size_t g0 = goal_.next_set(0);
    return g0 == BitVector::npos ? 0.0 : full[g0];
  }

  void finish(std::vector<double>& dq, double goal_value, bool partial,
              TimedReachabilityResult& r) const {
    const std::size_t n = goal_.size();
    if (partial) {
      std::vector<double> full;
      expose(dq, goal_value, full);
      require_finite(full, "timed_reachability");
      r.iterate = full;  // full-state raw iterate, resumable by any backend
      r.values = std::move(full);
      for (StateId s = 0; s < n; ++s) r.values[s] = goal_[s] ? 1.0 : clamp01(r.values[s]);
      return;
    }
    // The dense iterate plus the goal scalar cover every value the fused
    // write below composes, at dense-row cost instead of full-state cost.
    require_finite(dq, "timed_reachability");
    if (!std::isfinite(goal_value)) {
      throw NumericError("timed_reachability: non-finite goal iterate");
    }
    // Fused materialize + clamp.  Every state is goal, avoided or a dense
    // row (DenseKernel's partition), so: fill 1.0 (the clamped goal value —
    // on goal-heavy models like FTWC nearly the whole vector), scatter the
    // clamped dense iterate, then zero the avoided states.
    r.values.assign(n, 1.0);
    for (std::uint64_t row = 0; row < rows(); ++row) {
      r.values[kernel_.dense_state[row]] = clamp01(dq[row]);
    }
    if (!avoid_.empty()) {
      for (StateId s = 0; s < n; ++s) {
        if (avoid_[s] && !goal_[s]) r.values[s] = 0.0;
      }
    }
  }

 private:
  /// Dense-row variant of SerialRows::closed (columns are dense indices).
  bool closed(const BitVector& locked, std::size_t r) const {
    for (std::uint64_t tr = view_.row_first[r]; tr < view_.row_first[r + 1]; ++tr) {
      for (std::uint64_t j = view_.entry_first[tr]; j < view_.entry_first[tr + 1]; ++j) {
        const std::uint32_t c = view_.col[j];
        if (c != r && !locked[c]) return false;
      }
    }
    return true;
  }

  const DenseKernel& kernel_;
  const KernelOps& ops_;
  DenseKernelView view_;
  const BitVector& goal_;
  const BitVector& avoid_;
  bool maximize_;
};

// ---------------------------------------------------------------------------
// The fused sweep.

/// One time bound of a solve: its truncation plan, iterate pair, locking
/// state and stop bookkeeping.  Every horizon keeps its own window and
/// iterate: the iterate of a larger horizon is *not* reusable for a smaller
/// one (it weights the m-th future jump by psi(m + i, lambda_max) where the
/// smaller bound needs psi(m, lambda_j) — a shifted-weight sum, the same
/// observation behind partial_residual above).
struct Horizon {
  std::size_t idx = 0;  // position in `times`
  PoissonWindow psi;
  std::uint64_t k = 0;      // planned steps (right truncation point)
  std::uint64_t start = 0;  // first step swept: k, or the resume point
  double window_epsilon = 0.0;
  std::uint64_t fox_glynn_right = 0;
  bool engaged = false;  // certificate planned (DESIGN.md Sec. 14)
  bool cert_ok = true;   // ... and still live for this horizon
  bool record_all = false;
  bool lock_sweep = false;  // this step stages lock candidates
  bool done = false;
  bool early_fired = false;
  bool lyap_fired = false;
  bool fixpoint = false;
  std::uint64_t early_step = 0;
  std::uint64_t executed = 0;
  std::uint64_t probes = 0;  // survival ages the certificate checks paid for
  double weight = 0.0;       // psi(g), or G_g for goal-folded engines
  double goal_value = 0.0;   // G_{g+1} (goal-folded engines)
  double lyap_error = 0.0;
  std::vector<double> q_next, q_cur;  // q_{g+1} in hand, q_g being written
  std::vector<std::uint64_t> decision;
  BitVector locked;
  std::size_t locked_count = 0;
  std::vector<std::vector<StateId>> cand;  // per-worker lock staging
  std::vector<WorkerPool::Slot> delta;     // per-worker sweep delta
  std::vector<std::uint64_t> updates;      // per-worker row relaxations

  /// The survival age the certificate checks after sweeping step @p g, or 0
  /// when it does not check there: below the window with a sweep left to
  /// skip, and within the probe budget — the left - g survival sweeps paid
  /// for must be fewer than the g - 1 sweeps a stop would skip.
  std::uint64_t cert_age(std::uint64_t g) const {
    if (!engaged || !cert_ok || g <= 1 || g >= psi.left()) return 0;
    const std::uint64_t age = psi.left() - g;
    return LyapunovSeries::within_budget(age, g - 1) ? age : 0;
  }
};

/// Algorithm 1 for every horizon at once, fused bottom-aligned: all
/// horizons end at step 1 together, so horizon j takes part in global steps
/// g = start_j .. 1 and its local step index *is* g — its per-state
/// operation sequence is exactly that of a solve of its bound alone, which
/// is what makes a batch bit-identical to its single-horizon runs
/// (DESIGN.md Sec. 11.1).  What the horizons share is everything around
/// that arithmetic: the kernel, streamed once per block for all active
/// horizons, the worker pool, the guard and the survival record.  @p seed,
/// when given, is the first horizon's full-state q_{start+1} (a resume
/// iterate, or the goal indicator of a step-bounded run) instead of 0.
/// Checkpoints are published as @p stage; null publishes none.
template <class Rows>
unsigned sweep_horizons(const Rows& rows, const std::vector<double>* seed,
                        std::vector<Horizon>& horizons,
                        std::vector<TimedReachabilityResult>& results,
                        const TimedReachabilityOptions& options, const char* stage) {
  const std::size_t n = rows.rows();
  WorkerPool pool = make_worker_pool(options.threads, n);
  const std::vector<Counter*> row_counters =
      worker_row_counters(options.telemetry, "reachability.rows.worker", pool.size());
  Counter* const* const rows_out = row_counters.empty() ? nullptr : row_counters.data();

  // On-the-fly convergence locking (DESIGN.md Sec. 14.3): below the window
  // a row whose value came back bit-identical with every successor already
  // locked is an exact fixpoint of its own update.  At lock time both
  // double-buffers hold the same bits, so skipped rows need no copies,
  // contribute exactly 0 to the sweep delta, and reported values are
  // bit-identical with locking on or off.  Candidates are staged per worker
  // and applied after the barrier, so the locked set is a deterministic
  // function of the iterate for every thread count.
  const bool locking = options.locking && !options.extract_scheduler;
  bool any_engaged = false;
  for (Horizon& h : horizons) {
    h.q_next.assign(n, 0.0);
    h.q_cur.assign(n, 0.0);
    if (options.extract_scheduler) h.decision.assign(n, kNoTransition);
    if (locking) {
      h.locked.assign(n, false);
      h.cand.resize(pool.size());
    }
    h.delta.resize(pool.size());
    h.updates.assign(pool.size() * kSlotStride, 0);
    any_engaged = any_engaged || h.engaged;
  }
  if (seed != nullptr) {
    // A resume iterate is external input just like a checkpoint write; a
    // non-finite entry would corrupt the result without tripping the
    // per-sweep delta check.
    require_finite(*seed, "timed_reachability resume");
    horizons[0].goal_value = rows.ingest(*seed, horizons[0].q_next);
  }

  // The survival record is a pure function of the kernel, not of the
  // horizon, so one iterate serves every engaged horizon at its own age
  // (left_h - g); a resumed horizon still within its probe budget catches
  // up on the ages it missed.  Stop decisions are therefore identical to
  // each horizon's solo run.
  LyapunovSeries series(options.epsilon / 2.0);
  bool cert_live = any_engaged;
  std::vector<double> u;
  std::vector<double> u_next;
  std::vector<WorkerPool::Slot> u_slot;
  if (cert_live) {
    rows.survival_start(u);
    u_next.assign(u.size(), 0.0);
    u_slot.resize(pool.size());
  }

  // Descending start order makes the set of started horizons a prefix.
  std::vector<Horizon*> by_start;
  for (Horizon& h : horizons) by_start.push_back(&h);
  std::stable_sort(by_start.begin(), by_start.end(),
                   [](const Horizon* a, const Horizon* b) { return a->start > b->start; });

  RunGuard* const guard = options.guard;
  std::atomic<bool> sweep_aborted{false};
  bool stopped = false;
  std::uint64_t stop_step = 0;
  std::vector<Horizon*> active;
  std::vector<double> scratch;  // full-state checkpoint staging
  std::size_t started = 0;
  for (std::uint64_t g = by_start.empty() ? 0 : by_start[0]->start; g >= 1; --g) {
    while (started < by_start.size() && by_start[started]->start >= g) ++started;
    active.clear();
    for (std::size_t a = 0; a < started; ++a) {
      if (!by_start[a]->done) active.push_back(by_start[a]);
    }
    if (active.empty()) {
      // Everything in flight stopped early; fast-forward to the next
      // (strictly smaller) horizon start, or stop when none remain.
      if (started == by_start.size()) break;
      g = by_start[started]->start + 1;
      continue;
    }
    if (guard != nullptr && guard->poll() != RunStatus::Converged) {
      stopped = true;
      stop_step = g;
      break;
    }
    for (Horizon* h : active) {
      const double psi = h->psi.psi(g);
      h->weight = Rows::kGoalFolded ? psi + h->goal_value : psi;
      // Candidacy only below the window: there psi == 0, so a row's update
      // no longer depends on the step index and bitwise-stable means
      // stable forever.
      h->lock_sweep = locking && g < h->psi.left();
    }
    pool.run(n, [&](unsigned worker, std::size_t begin, std::size_t end) {
      std::uint64_t swept = 0;
      for (Horizon* h : active) h->delta[worker].value = 0.0;
      for (std::size_t blk = begin; blk < end; blk += kGuardBlock) {
        if (guard != nullptr && guard->should_abort_sweep()) {
          sweep_aborted.store(true, std::memory_order_relaxed);
          break;
        }
        const std::size_t blk_end = std::min(end, blk + kGuardBlock);
        // The block's kernel rows stay cache-hot across the horizons.
        for (Horizon* h : active) {
          std::uint64_t h_swept = 0;
          const double d = rows.relax(
              g, h->weight, h->q_next.data(), h->q_cur.data(),
              options.extract_scheduler ? h->decision.data() : nullptr, blk, blk_end,
              h->locked_count != 0 || h->lock_sweep ? &h->locked : nullptr,
              h->lock_sweep ? &h->cand[worker] : nullptr, h_swept);
          WorkerPool::Slot& slot = h->delta[worker];
          if (!(d <= slot.value)) slot.value = d;  // NaN-capturing max
          h->updates[worker * kSlotStride] += h_swept;
          swept += h_swept;
        }
      }
      if (rows_out != nullptr) rows_out[worker]->add(swept);
    });
    if (guard != nullptr && sweep_aborted.load(std::memory_order_relaxed)) {
      // The sweep for step g was abandoned mid-flight: q_cur is partially
      // written, so each partial result is its last *completed* iterate in
      // q_next and step g counts as unconsumed.
      stopped = true;
      stop_step = g;
      break;
    }
    // Advance the shared survival record to the deepest age any horizon
    // checks this step; the probe-cap disengage at its tail fires exactly
    // where each solo run's would.
    if (cert_live) {
      std::uint64_t needed = 0;
      for (const Horizon* h : active) needed = std::max(needed, h->cert_age(g));
      while (cert_live && series.size() < needed) {
        series.record(rows.survival_step(pool, u_slot, u, u_next));
        u.swap(u_next);
        if (series.should_disengage(series.size())) {
          cert_live = false;
          u = std::vector<double>();
          u_next = std::vector<double>();
        }
      }
    }

    for (Horizon* hp : active) {
      Horizon& h = *hp;
      TimedReachabilityResult& r = results[h.idx];
      const double delta = WorkerPool::reduce_max(h.delta);
      if (!std::isfinite(delta)) {
        throw NumericError("timed_reachability: non-finite update at step " + std::to_string(g) +
                           " (NaN/Inf reached the iterate)");
      }
      h.q_cur.swap(h.q_next);  // q_next now holds q_g for the next round
      if (Rows::kGoalFolded) h.goal_value = h.weight;
      ++h.executed;
      if (h.lock_sweep) {
        // Applied only after the barrier and the NaN check: candidacy was
        // judged against the pre-sweep locked set on every worker.
        for (std::vector<StateId>& c : h.cand) {
          for (const StateId s : c) h.locked.set(s);
          h.locked_count += c.size();
          c.clear();
        }
      }
      if (h.record_all) r.decisions[g - 1] = h.decision;
      if (options.extract_scheduler && g == 1) r.initial_decision = h.decision;

      if (guard != nullptr && stage != nullptr && guard->wants_checkpoint(h.executed)) {
        std::vector<double>& full = rows.expose(h.q_next, h.goal_value, scratch);
        guard->checkpoint(stage, h.executed, h.k,
                          partial_residual(h.psi, g - 1, h.window_epsilon),
                          std::span<double>(full.data(), full.size()));
        // The callback writes through the span (checkpoint persistence,
        // fault injection), so the iterate is untrusted on return.  A
        // non-finite entry would be silently dropped by the action
        // comparisons — NaN compares false both ways — leaving finite wrong
        // values, so it is rejected here at the trust boundary.
        require_finite(full, "timed_reachability checkpoint");
        h.goal_value = rows.ingest(full, h.q_next);
        // The writer may also have changed a locked row, whose twin buffer
        // would then be stale — drop every lock and let candidacy
        // re-establish them from the (possibly rewritten) iterate.
        if (h.locked_count != 0) {
          h.locked.assign(n, false);
          h.locked_count = 0;
        }
      }

      // Early termination: below the window no further psi mass arrives,
      // so once the vector stops moving the remaining iterations are no-ops
      // up to early_termination_delta.  Gated on the window bound only:
      // inside the window every stored weight is strictly positive by
      // construction (PoissonWindow::compute throws at the underflow
      // frontier), and firing on an interior psi == 0 would silently skip
      // steps that still carry mass without widening residual_bound.
      if (options.early_termination && g > 1 && g - 1 < h.psi.left() &&
          delta <= options.early_termination_delta) {
        if (options.extract_scheduler) r.initial_decision = h.decision;
        h.early_fired = true;
        h.early_step = g;
        h.done = true;
      }
      // Exact fixpoint below the window: delta == 0 means q_g and q_{g+1}
      // are bit-identical, and with psi == 0 every remaining sweep applies
      // the same operator to the same vector — provable no-ops, zero extra
      // error.
      if (!h.done && locking && g > 1 && g <= h.psi.left() && delta == 0.0) {
        h.fixpoint = true;
        h.done = true;
      }
      // Lyapunov certificate: below the window and within the probe budget,
      // stop once the forfeited tail delta * series_bound fits under the
      // stop budget.
      const std::uint64_t age = h.done ? 0 : h.cert_age(g);
      if (age != 0) {
        h.probes = std::min(age, series.size());
        if (age > series.size() || series.should_disengage(age)) {
          h.cert_ok = false;  // the record stopped at the probe cap
        } else if (series.certifies(delta, age)) {
          h.lyap_fired = true;
          h.lyap_error = series.stop_error(delta, age);
          r.k_lyapunov = h.executed;
          h.done = true;
        }
      }
    }
  }

  for (Horizon& h : horizons) {
    TimedReachabilityResult& r = results[h.idx];
    r.iterations_executed = h.executed;
    r.lyapunov_probes = h.probes;
    r.exact_fixpoint = h.fixpoint;
    r.locked_final = h.locked_count;
    for (std::size_t w = 0; w < pool.size(); ++w) r.state_updates += h.updates[w * kSlotStride];
    const bool partial = stopped && !h.done;
    if (partial) {
      r.status = guard->status();
      r.residual_bound =
          partial_residual(h.psi, std::min(stop_step, h.start), h.window_epsilon);
    } else if (h.lyap_fired) {
      r.residual_bound = h.window_epsilon + h.lyap_error;
    } else {
      r.residual_bound =
          h.window_epsilon + (h.early_fired ? options.early_termination_delta : 0.0);
    }
    rows.finish(h.q_next, h.goal_value, partial, r);
    h.q_next = std::vector<double>();
    h.q_cur = std::vector<double>();
  }
  return pool.size();
}

/// Runs @p fn on the backend's row engine over the injected kernel, or one
/// built for this (model, goal, avoid).  A solve that extracts a scheduler
/// runs the serial rows on every backend: only they record decisions.  A
/// value rather than a template, so solve can take it as its default engine.
constexpr auto with_rows = [](const Ctmdp& model, const BitVector& goal,
                              const TimedReachabilityOptions& options, auto&& fn) {
  const std::size_t n = model.num_states();
  const bool maximize = options.objective == Objective::Maximize;
  const Backend backend = resolve_backend(options.backend);
  if (backend == Backend::Serial || options.extract_scheduler) {
    std::optional<DiscreteKernel> own_kernel;
    if (options.discrete_kernel == nullptr) own_kernel.emplace(model, goal);
    const DiscreteKernel& kernel =
        options.discrete_kernel != nullptr ? *options.discrete_kernel : *own_kernel;
    if (kernel.state_first.size() != n + 1) {
      throw ModelError("timed_reachability: injected discrete kernel does not fit the model");
    }
    return fn(SerialRows(kernel, goal, options.avoid, maximize));
  }
  std::optional<DenseKernel> own_kernel;
  if (options.dense_kernel == nullptr) own_kernel.emplace(model, goal, options.avoid);
  const DenseKernel& kernel = options.dense_kernel != nullptr ? *options.dense_kernel : *own_kernel;
  if (kernel.dense_index.size() != n) {
    throw ModelError("timed_reachability: injected dense kernel does not fit the model");
  }
  fn(DenseRows(kernel, backend, goal, options.avoid, maximize));
};

/// Plans every horizon and runs the fused sweep over the row engine
/// @p run_rows hands it (a callable shaped like with_rows).  @p e is the
/// uniform rate of the solve; @p single selects the `reachability` span of a
/// one-horizon solve over the `reachability_batch` tree.
template <class RunRows = decltype(with_rows)>
std::vector<TimedReachabilityResult> solve(const Ctmdp& model, const BitVector& goal, double e,
                                           const std::vector<double>& times,
                                           const TimedReachabilityOptions& options, bool single,
                                           const RunRows& run_rows = with_rows) {
  const std::size_t n = model.num_states();
  if (!options.avoid.empty() && options.avoid.size() != n) {
    throw ModelError("timed_reachability: avoid vector size mismatch");
  }
  std::vector<TimedReachabilityResult> results(times.size());
  if (times.empty()) return results;

  std::optional<Telemetry::Span> span;
  if (options.telemetry != nullptr) {
    span.emplace(options.telemetry->span(single ? "reachability" : "reachability_batch"));
  }

  // Truncation policy (DESIGN.md Sec. 14).  extract_scheduler pins the pure
  // Fox-Glynn schedule: the decision table must hold one faithful row per
  // planned step, which a certified stop would leave unfilled.
  std::vector<Horizon> horizons(times.size());
  std::uint64_t k_max = 0;
  for (std::size_t j = 0; j < times.size(); ++j) {
    Horizon& h = horizons[j];
    TimedReachabilityResult& r = results[j];
    const TruncationPlan plan = plan_truncation(
        options.extract_scheduler ? Truncation::FoxGlynn : options.truncation, e * times[j],
        options.epsilon);
    h.idx = j;
    h.psi = plan.window;
    h.k = h.psi.right();
    h.start = h.k;
    h.window_epsilon = plan.window_epsilon;
    h.fox_glynn_right = plan.fox_glynn_right;
    h.engaged = plan.engaged();
    // The product k * n can overflow for pathological horizons (k grows
    // with lambda without bound); a wrapped product below the cap would
    // commit to allocating the astronomically large true table.
    h.record_all = options.extract_scheduler &&
                   saturating_mul(h.k, static_cast<std::uint64_t>(n)) <=
                       options.max_decision_entries;
    k_max = std::max(k_max, h.k);
    r.uniform_rate = e;
    r.lambda = e * times[j];
    r.iterations_planned = h.k;
    r.truncation = plan.resolved;
    if (options.extract_scheduler) {
      r.initial_decision.assign(n, kNoTransition);
      if (h.record_all) r.decisions.resize(h.k);
    }
  }

  if (options.resume != nullptr) {
    const TimedReachabilityResult& prior = *options.resume;
    Horizon& h = horizons[0];
    if (prior.status == RunStatus::Converged || prior.iterate.size() != n) {
      throw ModelError("timed_reachability: resume requires a partial result for this model");
    }
    if (prior.iterations_planned != h.k || prior.iterations_executed >= h.k) {
      throw ModelError("timed_reachability: resume horizon mismatch (model, t or epsilon changed)");
    }
    h.executed = prior.iterations_executed;
    h.start = h.k - h.executed;
    // The steps the prior run already executed recorded their decision rows
    // into its partial result; a resumed run only sweeps start..1, so
    // without this merge the scheduler artifact would lose every
    // pre-interruption row and disagree with an uninterrupted run.
    if (h.record_all && prior.decisions.size() == h.k) {
      for (std::uint64_t j = h.start; j < h.k; ++j) results[0].decisions[j] = prior.decisions[j];
    }
  }

  unsigned threads = 0;
  run_rows(model, goal, options, [&](const auto& rows) {
    threads = sweep_horizons(rows, options.resume != nullptr ? &options.resume->iterate : nullptr,
                             horizons, results, options, "timed_reachability");
    if (span && rows.kGoalFolded) span->metric("dense_rows", rows.rows());
  });

  if (!span) return results;
  span->metric("states", n);
  span->metric("transitions", model.num_transitions());
  span->metric("uniform_rate", e);
  if (single) {
    const Horizon& h = horizons[0];
    const TimedReachabilityResult& r = results[0];
    span->metric("lambda", r.lambda);
    span->metric("poisson_left", h.psi.left());
    span->metric("poisson_right", h.k);
    span->metric("poisson_width", h.k - h.psi.left() + 1);
    span->metric("iterations_planned", h.k);
    span->metric("iterations_executed", h.executed);
    span->metric("early_termination_step", h.early_step);
    span->metric("threads", threads);
    span->metric("residual_bound", r.residual_bound);
    span->metric("truncation.k_fox_glynn", h.fox_glynn_right);
    span->metric("truncation.k_effective", h.executed);
    span->metric("truncation.k_lyapunov", r.k_lyapunov);
    if (h.engaged) span->metric("truncation.probes", r.lyapunov_probes);
    span->metric("truncation.locked_final", r.locked_final);
    span->metric("truncation.state_updates", r.state_updates);
    return results;
  }
  span->metric("horizons", times.size());
  span->metric("iterations_planned_max", k_max);
  span->metric("threads", threads);
  // Per-horizon child spans in input order, emitted after the fused loop
  // (the registry's span stack is coordinating-thread-only, so horizon
  // spans must not interleave with sweeps).
  for (std::size_t j = 0; j < times.size(); ++j) {
    const Horizon& h = horizons[j];
    const TimedReachabilityResult& r = results[j];
    Telemetry::Span hspan = options.telemetry->span("reachability_batch.horizon");
    hspan.metric("t", times[j]);
    hspan.metric("lambda", r.lambda);
    hspan.metric("poisson_left", h.psi.left());
    hspan.metric("poisson_right", h.k);
    hspan.metric("iterations_planned", h.k);
    hspan.metric("iterations_executed", h.executed);
    hspan.metric("early_termination_step", h.early_step);
    hspan.metric("residual_bound", r.residual_bound);
    hspan.metric("truncation.k_fox_glynn", h.fox_glynn_right);
    hspan.metric("truncation.k_effective", h.executed);
    hspan.metric("truncation.k_lyapunov", r.k_lyapunov);
    if (h.engaged) hspan.metric("truncation.probes", r.lyapunov_probes);
    hspan.metric("truncation.locked_final", h.locked_count);
    hspan.metric("truncation.state_updates", r.state_updates);
  }
  return results;
}

/// The uniform rate of a solve; rejects non-uniform models.
double uniform_rate_of(const Ctmdp& model, const char* who) {
  const auto uniform = model.uniform_rate(1e-6);
  if (!uniform) {
    throw UniformityError(std::string(who) +
                          ": model is not uniform; construct it uniformly or uniformize first");
  }
  return *uniform;
}

/// Policy evaluation of a validated table at uniform rate @p e: a
/// one-horizon solve on the replay rows, with the pure Fox-Glynn schedule
/// and nothing to extract, resume or avoid.  No locking and no early stop:
/// a choice may change from step to step, so a bitwise-stable row is not a
/// fixpoint of the remaining steps.
TimedReachabilityResult replay(const Ctmdp& model, const BitVector& goal, double e, double t,
                               const CountdownScheduler& scheduler,
                               const TimedReachabilityOptions& options) {
  TimedReachabilityOptions policy = options;
  policy.truncation = Truncation::FoxGlynn;
  policy.avoid = BitVector{};
  policy.extract_scheduler = false;
  policy.resume = nullptr;
  policy.locking = false;
  policy.early_termination = false;
  const auto replay_rows = [&scheduler](const auto& m, const auto& g, const auto& o, auto&& fn) {
    const DiscreteKernel kernel(m, g);
    fn(CountdownRows(kernel, g, o.avoid, scheduler));
  };
  return std::move(solve(model, goal, e, {t}, policy, true, replay_rows)[0]);
}

}  // namespace

TimedReachabilityResult timed_reachability(const Ctmdp& model, const BitVector& goal,
                                           double t, const TimedReachabilityOptions& options) {
  check_inputs(model, goal);
  if (!(t >= 0.0)) throw ModelError("timed_reachability: negative time bound");
  const double e = uniform_rate_of(model, "timed_reachability");
  return std::move(solve(model, goal, e, {t}, options, true)[0]);
}

std::vector<TimedReachabilityResult> timed_reachability_batch(
    const Ctmdp& model, const BitVector& goal, const std::vector<double>& times,
    const TimedReachabilityOptions& options) {
  check_inputs(model, goal);
  if (options.resume != nullptr) {
    throw ModelError(
        "timed_reachability_batch: resume is not supported for batch solves; resume the "
        "interrupted horizon via timed_reachability");
  }
  for (const double t : times) {
    if (!(t >= 0.0)) throw ModelError("timed_reachability_batch: negative time bound");
  }
  const double e = uniform_rate_of(model, "timed_reachability_batch");
  return solve(model, goal, e, times, options, false);
}

TimedReachabilityResult evaluate_scheduler(const Ctmdp& model, const BitVector& goal,
                                           double t, const std::vector<std::uint64_t>& choice,
                                           const TimedReachabilityOptions& options) {
  check_inputs(model, goal);
  const std::size_t n = model.num_states();
  if (choice.size() != n) throw ModelError("evaluate_scheduler: choice vector size mismatch");
  if (!(t >= 0.0)) throw ModelError("evaluate_scheduler: negative time bound");
  const double e = uniform_rate_of(model, "evaluate_scheduler");

  // The stationary scheduler as a one-row countdown table, which every step
  // reads.  Goal rows never read their choice and transitionless rows have
  // none: both replay as kNoTransition.
  std::vector<std::vector<std::uint64_t>> table(1, std::vector<std::uint64_t>(n, kNoTransition));
  for (StateId s = 0; s < n; ++s) {
    const auto [first, last] = model.transition_range(s);
    if (goal[s] || first == last) continue;
    if (choice[s] < first || choice[s] >= last) {
      throw ModelError("evaluate_scheduler: choice out of range for state");
    }
    table[0][s] = choice[s];
  }
  return replay(model, goal, e, t, CountdownScheduler(std::move(table)), options);
}

TimedReachabilityResult evaluate_countdown_scheduler(const Ctmdp& model, const BitVector& goal,
                                                     double t,
                                                     const CountdownScheduler& scheduler,
                                                     const TimedReachabilityOptions& options) {
  if (goal.size() != model.num_states()) {
    throw ModelError("evaluate_countdown_scheduler: goal vector size mismatch");
  }
  if (!(t >= 0.0)) throw ModelError("evaluate_countdown_scheduler: negative time bound");
  if (scheduler.num_steps() == 0) {
    throw ModelError("evaluate_countdown_scheduler: scheduler has no decision rows");
  }
  const double e = uniform_rate_of(model, "evaluate_countdown_scheduler");

  // Validates every table row the sweep will read, in sweep order: steps
  // above the table all read its last row, so step k stands for them.
  const std::uint64_t k = PoissonWindow::compute(e * t, options.epsilon).right();
  for (std::uint64_t i = k; i >= 1; i = std::min(i, scheduler.num_steps()) - 1) {
    for (StateId s = 0; s < model.num_states(); ++s) {
      const std::uint64_t tr = goal[s] ? kNoTransition : scheduler.choice(i, s);
      const auto [first, last] = model.transition_range(s);
      if (tr != kNoTransition && (tr < first || tr >= last)) {
        throw ModelError("evaluate_countdown_scheduler: choice out of range at step " +
                         std::to_string(i) + ", state " + std::to_string(s));
      }
    }
  }
  return replay(model, goal, e, t, scheduler, options);
}

std::vector<double> step_bounded_reachability(const Ctmdp& model, const BitVector& goal,
                                              std::uint64_t steps, Objective objective,
                                              unsigned threads, RunGuard* guard,
                                              Backend backend) {
  check_inputs(model, goal);
  TimedReachabilityOptions options;
  options.objective = objective;
  options.threads = threads;
  options.guard = guard;
  options.backend = backend;
  // The lambda = 0 window has psi(g) = 0 for every g >= 1, so k = steps
  // Algorithm-1 sweeps seeded with the goal indicator are the step-bounded
  // recurrence: goal rows keep their 1, the rest take the best successor
  // average.  Nothing is below that window, so neither locking nor early
  // termination ever engages.
  std::vector<Horizon> horizons(1);
  horizons[0].psi = PoissonWindow::compute(0.0, options.epsilon);
  horizons[0].k = horizons[0].start = steps;
  std::vector<double> seed(model.num_states());
  for (StateId s = 0; s < seed.size(); ++s) seed[s] = goal[s] ? 1.0 : 0.0;
  std::vector<TimedReachabilityResult> results(1);
  with_rows(model, goal, options, [&](const auto& rows) {
    sweep_horizons(rows, &seed, horizons, results, options, nullptr);
  });
  // The step count carries no Poisson mass, so a stop has no sound partial.
  const RunStatus status = results[0].status;
  if (status != RunStatus::Converged) {
    throw BudgetError(run_status_code(status),
                      std::string("step_bounded_reachability: ") + run_status_name(status));
  }
  return std::move(results[0].values);
}

}  // namespace unicon
