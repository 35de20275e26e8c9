#include "ctmc/transient.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>

#include "support/backend.hpp"
#include "support/errors.hpp"
#include "support/fox_glynn.hpp"
#include "support/numerics.hpp"
#include "support/parallel.hpp"
#include "support/sweep.hpp"
#include "support/telemetry.hpp"

namespace unicon {

namespace {

/// Flat kernel of the uniformized jump matrix P = R / E with the residual
/// mass kept implicitly on the diagonal.  The branching probabilities are
/// divided out once and stored twice: row-major (outgoing edges, for the
/// backward/value gather y = P x) and column-major (incoming edges ordered
/// by source, for the forward/distribution gather y = x P).  Storing the
/// transpose turns the forward step's scatter into a race-free gather, so
/// both directions parallelize row-wise; the source-ordered incoming rows
/// keep the accumulation order of the historical serial scatter, so results
/// are bit-identical to it.
struct JumpKernel {
  std::vector<double> self_residual;  // per state: 1 - exit/E (excl. explicit self-loops)
  std::vector<std::uint64_t> out_first;  // per state: first outgoing prob/col index
  std::vector<double> out_prob;
  std::vector<std::uint32_t> out_col;  // target states
  std::vector<std::uint64_t> in_first;  // per state: first incoming prob/col index
  std::vector<double> in_prob;
  std::vector<std::uint32_t> in_col;  // source states

  JumpKernel(const Ctmc& chain, double rate) {
    const CsrMatrix& rates = chain.rate_matrix();
    const std::size_t n = chain.num_states();
    const std::size_t m = rates.entries();
    self_residual.resize(n);
    for (StateId s = 0; s < n; ++s) {
      self_residual[s] = 1.0 - chain.exit_rate(s) / rate;
      if (self_residual[s] < 0.0) self_residual[s] = 0.0;
    }

    out_first.resize(n + 1);
    out_prob.reserve(m);
    out_col.reserve(m);
    std::vector<std::uint64_t> in_count(n + 1, 0);
    out_first[0] = 0;
    for (StateId s = 0; s < n; ++s) {
      for (const SparseEntry& t : rates.row(s)) {
        const double p = t.value / rate;
        if (!std::isfinite(p) || p < 0.0) {
          throw NumericError("JumpKernel: non-finite branching probability from state " +
                             std::to_string(s));
        }
        out_prob.push_back(p);
        out_col.push_back(t.col);
        ++in_count[t.col + 1];
      }
      out_first[s + 1] = out_prob.size();
    }

    in_first.assign(n + 1, 0);
    for (StateId s = 0; s < n; ++s) in_first[s + 1] = in_first[s] + in_count[s + 1];
    in_prob.resize(m);
    in_col.resize(m);
    std::vector<std::uint64_t> cursor(in_first.begin(), in_first.end() - 1);
    for (StateId s = 0; s < n; ++s) {
      for (std::uint64_t j = out_first[s]; j < out_first[s + 1]; ++j) {
        const std::uint64_t slot = cursor[out_col[j]]++;
        in_prob[slot] = out_prob[j];
        in_col[slot] = s;
      }
    }
  }

  /// The incoming (forward) rows as a backend GatherView.
  GatherView forward_view() const {
    GatherView v;
    v.num_rows = self_residual.size();
    v.diag = self_residual.data();
    v.row_first = in_first.data();
    v.prob = in_prob.data();
    v.col = in_col.data();
    return v;
  }

  /// The outgoing (backward) rows as a backend GatherView.
  GatherView backward_view() const {
    GatherView v;
    v.num_rows = self_residual.size();
    v.diag = self_residual.data();
    v.row_first = out_first.data();
    v.prob = out_prob.data();
    v.col = out_col.data();
    return v;
  }

  // y = x P (forward / distribution step): gather over incoming edges.
  // @p rows: optional per-worker telemetry row counters (nullptr = off),
  // batched into one relaxed add per worker per sweep.  @p ops: simd kernel
  // table, or nullptr for the historical sequential accumulation.
  void step_forward(const std::vector<double>& x, std::vector<double>& y, WorkerPool& pool,
                    RunGuard* guard, std::atomic<bool>& aborted,
                    Counter* const* rows = nullptr, const KernelOps* ops = nullptr) const {
    const GatherView view = forward_view();
    pool.run(self_residual.size(), [&](unsigned worker, std::size_t begin, std::size_t end) {
      std::uint64_t swept = 0;
      for (std::size_t blk = begin; blk < end; blk += kGuardBlock) {
        if (guard != nullptr && guard->should_abort_sweep()) {
          aborted.store(true, std::memory_order_relaxed);
          break;
        }
        const std::size_t blk_end = std::min(end, blk + kGuardBlock);
        swept += blk_end - blk;
        if (ops != nullptr) {
          ops->gather_rows(view, x.data(), y.data(), blk, blk_end);
          continue;
        }
        for (std::size_t s = blk; s < blk_end; ++s) {
          double acc = x[s] * self_residual[s];
          for (std::uint64_t j = in_first[s]; j < in_first[s + 1]; ++j) {
            acc += x[in_col[j]] * in_prob[j];
          }
          y[s] = acc;
        }
      }
      if (rows != nullptr) rows[worker]->add(swept);
    });
  }

  /// True when every outgoing column of @p s lies in @p locked or is s
  /// itself (the closure half of the locking criterion).
  bool row_closed(const BitVector& locked, std::size_t s) const {
    for (std::uint64_t j = out_first[s]; j < out_first[s + 1]; ++j) {
      const std::uint32_t c = out_col[j];
      if (c != s && !locked[c]) return false;
    }
    return true;
  }

  // y = P x (backward / value step): gather over outgoing edges.  With a
  // @p locked set, frozen rows are skipped without any write (both
  // double-buffers already hold their bits — the no-copy invariant); the
  // block is split around frozen runs, which cannot change any produced
  // bit since rows are independent.  @p cand (per-worker staging, applied
  // by the caller after the barrier) collects rows meeting the locking
  // criterion: value bit-identical to the previous iterate with every
  // successor frozen (or the row itself).  @p upd counts rows actually
  // relaxed into 64-byte-strided per-worker slots.
  void step_backward(const std::vector<double>& x, std::vector<double>& y, WorkerPool& pool,
                     RunGuard* guard, std::atomic<bool>& aborted,
                     Counter* const* rows = nullptr, const KernelOps* ops = nullptr,
                     const BitVector* locked = nullptr,
                     std::vector<std::vector<StateId>>* cand = nullptr,
                     std::uint64_t* upd = nullptr) const {
    const GatherView view = backward_view();
    pool.run(self_residual.size(), [&](unsigned worker, std::size_t begin, std::size_t end) {
      std::uint64_t swept = 0;
      std::vector<StateId>* const my_cand = cand != nullptr ? &(*cand)[worker] : nullptr;
      for (std::size_t blk = begin; blk < end; blk += kGuardBlock) {
        if (guard != nullptr && guard->should_abort_sweep()) {
          aborted.store(true, std::memory_order_relaxed);
          break;
        }
        const std::size_t blk_end = std::min(end, blk + kGuardBlock);
        if (locked == nullptr) {
          swept += blk_end - blk;
          if (ops != nullptr) {
            ops->gather_rows(view, x.data(), y.data(), blk, blk_end);
            continue;
          }
          for (std::size_t s = blk; s < blk_end; ++s) {
            double acc = self_residual[s] * x[s];
            for (std::uint64_t j = out_first[s]; j < out_first[s + 1]; ++j) {
              acc += out_prob[j] * x[out_col[j]];
            }
            y[s] = acc;
          }
          continue;
        }
        std::size_t r = blk;
        while (r < blk_end) {
          if ((*locked)[r]) {
            ++r;
            continue;
          }
          std::size_t run_end = r + 1;
          while (run_end < blk_end && !(*locked)[run_end]) ++run_end;
          if (ops != nullptr) {
            ops->gather_rows(view, x.data(), y.data(), r, run_end);
          } else {
            for (std::size_t s = r; s < run_end; ++s) {
              double acc = self_residual[s] * x[s];
              for (std::uint64_t j = out_first[s]; j < out_first[s + 1]; ++j) {
                acc += out_prob[j] * x[out_col[j]];
              }
              y[s] = acc;
            }
          }
          swept += run_end - r;
          if (my_cand != nullptr) {
            for (std::size_t s = r; s < run_end; ++s) {
              if (same_bits(y[s], x[s]) && row_closed(*locked, s)) {
                my_cand->push_back(static_cast<StateId>(s));
              }
            }
          }
          r = run_end;
        }
      }
      if (upd != nullptr) upd[worker * kSlotStride] += swept;
      if (rows != nullptr) rows[worker]->add(swept);
    });
  }

  /// The ops table for a resolved backend: nullptr selects the serial
  /// open-coded loops above.
  static const KernelOps* ops_for(Backend resolved) {
    return resolved == Backend::Serial ? nullptr : &kernel_ops(resolved);
  }
};

double pick_rate(const Ctmc& chain, const TransientOptions& options) {
  const double max_rate = chain.max_exit_rate();
  double e = options.uniform_rate == 0.0 ? max_rate : options.uniform_rate;
  if (e + 1e-12 < max_rate) {
    throw UniformityError("transient: uniformization rate below maximal exit rate");
  }
  if (e == 0.0) e = 1.0;  // chain without transitions; any rate works
  return e;
}

}  // namespace

TransientResult transient_distribution(const Ctmc& chain, double t,
                                       const TransientOptions& options) {
  if (t < 0.0) throw ModelError("transient: negative time bound");
  const std::size_t n = chain.num_states();
  std::optional<Telemetry::Span> span;
  if (options.telemetry != nullptr) span.emplace(options.telemetry->span("transient"));
  const double e = pick_rate(chain, options);
  const PoissonWindow psi = PoissonWindow::compute(e * t, options.epsilon);
  const JumpKernel p(chain, e);
  const KernelOps* const ops = JumpKernel::ops_for(resolve_backend(options.backend));
  WorkerPool pool = make_worker_pool(options.threads, n);
  const std::vector<Counter*> row_counters =
      worker_row_counters(options.telemetry, "ctmc.rows.worker", pool.size());
  Counter* const* const rows_out = row_counters.empty() ? nullptr : row_counters.data();

  std::vector<double> cur(n, 0.0);
  std::vector<double> next(n, 0.0);
  std::vector<double> acc(n, 0.0);
  cur[chain.initial()] = 1.0;

  RunGuard* const guard = options.guard;
  std::atomic<bool> sweep_aborted{false};
  RunStatus status = RunStatus::Converged;
  // Normalization by the window mass costs at most epsilon/(1 - epsilon)
  // <= 2 epsilon extra, hence the doubled slop in the converged bound.
  double residual = 2.0 * options.epsilon;

  std::uint64_t executed = 0;
  std::uint64_t early_step = 0;
  for (std::uint64_t i = 0;; ++i) {
    if (guard != nullptr && guard->poll() != RunStatus::Converged) {
      // Mass of steps [i, right] has not been accumulated yet.
      status = guard->status();
      residual = psi.tail_mass(i) + 2.0 * options.epsilon;
      break;
    }
    const double w = psi.psi(i);
    if (w > 0.0) {
      for (std::size_t s = 0; s < n; ++s) acc[s] += w * cur[s];
    }
    if (i >= psi.right()) break;
    p.step_forward(cur, next, pool, guard, sweep_aborted, rows_out, ops);
    if (guard != nullptr && sweep_aborted.load(std::memory_order_relaxed)) {
      status = guard->status();
      residual = psi.tail_mass(i + 1) + 2.0 * options.epsilon;
      break;
    }
    ++executed;
    if (guard != nullptr) {
      guard->checkpoint("transient_distribution", executed, psi.right(),
                        psi.tail_mass(i + 1) + 2.0 * options.epsilon,
                        std::span<double>(next.data(), next.size()));
    }
    if (options.early_termination &&
        max_abs_diff(cur, next) <= options.early_termination_delta) {
      // The distribution has converged; the remaining window mass sits on
      // the fixed point.
      const double tail = psi.tail_mass(i + 1);
      for (std::size_t s = 0; s < n; ++s) acc[s] += tail * next[s];
      cur.swap(next);
      residual += options.early_termination_delta;
      early_step = executed;
      break;
    }
    cur.swap(next);
  }

  require_finite(acc, "transient_distribution");
  // Normalize by the realized window mass so that the result is a
  // (sub-stochastic up to epsilon) distribution.
  const double mass = psi.total_mass();
  if (mass > 0.0) {
    for (double& v : acc) v = clamp01(v / mass);
  }
  TransientResult result{std::move(acc), psi.right(), executed, e};
  result.status = status;
  result.residual_bound = residual;
  if (span) {
    span->metric("states", n);
    span->metric("uniform_rate", e);
    span->metric("lambda", e * t);
    span->metric("poisson_left", psi.left());
    span->metric("poisson_right", psi.right());
    span->metric("poisson_width", psi.right() - psi.left() + 1);
    span->metric("iterations_planned", psi.right());
    span->metric("iterations_executed", executed);
    span->metric("early_termination_step", early_step);
    span->metric("threads", pool.size());
    span->metric("residual_bound", residual);
  }
  return result;
}

namespace {

/// Multi-horizon timed reachability over one shared uniformization run.
/// The step vectors v_i (probability to sit in B after i jumps of the
/// absorbing uniformized chain) do not depend on the time bound — only the
/// Poisson weights do — so one shared sweep sequence serves every horizon
/// exactly: per horizon and step these are the very multiply-adds of a
/// solve of that bound alone, while the matrix work is paid once
/// (DESIGN.md Sec. 11).  @p single selects the `ctmc_reachability` span of
/// a one-horizon solve over the `ctmc_reachability_batch` tree.
std::vector<TransientResult> reach_horizons(const Ctmc& chain, const BitVector& goal,
                                            const std::vector<double>& times,
                                            const TransientOptions& options, bool single) {
  const std::size_t num_horizons = times.size();
  std::vector<TransientResult> results(num_horizons);
  if (num_horizons == 0) return results;

  std::optional<Telemetry::Span> span;
  if (options.telemetry != nullptr) {
    span.emplace(
        options.telemetry->span(single ? "ctmc_reachability" : "ctmc_reachability_batch"));
  }
  const Ctmc absorbing = chain.make_absorbing(goal);
  const std::size_t n = absorbing.num_states();
  const double e = pick_rate(absorbing, options);
  const JumpKernel p(absorbing, e);
  const KernelOps* const ops = JumpKernel::ops_for(resolve_backend(options.backend));
  WorkerPool pool = make_worker_pool(options.threads, n);
  const std::vector<Counter*> row_counters =
      worker_row_counters(options.telemetry, "ctmc.rows.worker", pool.size());
  Counter* const* const rows_out = row_counters.empty() ? nullptr : row_counters.data();

  struct Horizon {
    PoissonWindow psi;
    bool done = false;
    std::uint64_t executed = 0;
    std::uint64_t early_step = 0;
    double residual = 0.0;
    RunStatus status = RunStatus::Converged;
    std::vector<double> acc;
    // Per-horizon truncation plan (DESIGN.md Sec. 14; the shared iterate
    // serves every window).  An engaged plan computes the window at
    // epsilon/2 and may fold the tail once the folded error provably fits
    // under the other epsilon/2.
    double window_epsilon = 0.0;
    std::uint64_t fox_glynn_right = 0;
    bool engaged = false;
    Truncation resolved = Truncation::FoxGlynn;
    std::uint64_t k_lyapunov = 0;
    std::uint64_t probes = 0;  // survival sweeps the fold checks paid for
    std::uint64_t state_updates = 0;
    std::size_t locked_final = 0;
  };
  std::vector<Horizon> horizons(num_horizons);
  std::uint64_t right_max = 0;
  bool any_engaged = false;
  for (std::size_t j = 0; j < num_horizons; ++j) {
    Horizon& h = horizons[j];
    const TruncationPlan hplan = plan_truncation(options.truncation, e * times[j], options.epsilon);
    h.psi = hplan.window;
    h.window_epsilon = hplan.window_epsilon;
    h.fox_glynn_right = hplan.fox_glynn_right;
    h.engaged = hplan.engaged();
    h.resolved = hplan.resolved;
    h.residual = hplan.window_epsilon;
    h.acc.assign(n, 0.0);
    right_max = std::max(right_max, h.psi.right());
    any_engaged = any_engaged || h.engaged;
  }

  std::vector<double> cur(n, 0.0);
  std::vector<double> next(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) cur[s] = goal[s] ? 1.0 : 0.0;

  // Convergence locking: the backward operator is time-invariant (the
  // Poisson weight only scales the accumulation, never the sweep), so a row
  // that reproduced its bits with every successor frozen is an exact
  // fixpoint of its own relaxation from the very first step.  The horizons
  // share one iterate, hence one frozen set; values are bit-identical with
  // locking on or off.
  const bool locking = options.locking;
  BitVector locked;
  std::size_t locked_count = 0;
  std::vector<std::vector<StateId>> cand;
  if (locking) {
    locked.assign(n, false);
    cand.resize(pool.size());
  }
  std::vector<std::uint64_t> upd(pool.size() * kSlotStride, 0);
  auto upd_total = [&] {
    std::uint64_t total = 0;
    for (std::size_t wkr = 0; wkr < pool.size(); ++wkr) total += upd[wkr * kSlotStride];
    return total;
  };
  // Lyapunov certificate: u_i(s) = Pr_s(X_i not in B) bounds the remaining
  // per-state distance v_inf - v_i, so once tail_mass(i+1) * sup u_{i+1}
  // drops under epsilon/2 a horizon's whole unaccumulated window can be
  // folded onto v_{i+1} at a provably bounded cost.  u_i is a pure function
  // of the kernel, so one iterate serves every engaged horizon.  The probe
  // budget: u_{i+1} is the (i+1)-th survival sweep a horizon pays for, worth
  // it only while a fold would still skip more of its remaining
  // right - (i+1) sweeps.
  LyapunovSeries series(options.epsilon / 2.0);
  bool cert_active = any_engaged;
  std::vector<double> u;
  std::vector<double> u_next;
  if (cert_active) {
    u.assign(n, 0.0);
    for (std::size_t s = 0; s < n; ++s) u[s] = goal[s] ? 0.0 : 1.0;
    u_next.assign(n, 0.0);
  }

  RunGuard* const guard = options.guard;
  std::atomic<bool> sweep_aborted{false};
  std::uint64_t executed = 0;
  std::size_t remaining = num_horizons;
  // Finishes horizon @p h at the current shared step.
  auto close = [&](Horizon& h) {
    h.executed = executed;
    h.state_updates = upd_total();
    h.locked_final = locked_count;
    h.done = true;
  };
  // Closes every still-open horizon on a guard stop with the window mass
  // from step @p from on unaccumulated.
  auto stop_open = [&](std::uint64_t from) {
    for (Horizon& h : horizons) {
      if (h.done) continue;
      h.status = guard->status();
      h.residual = h.psi.tail_mass(from) + h.window_epsilon;
      close(h);
    }
  };
  for (std::uint64_t i = 0; remaining > 0; ++i) {
    if (guard != nullptr && guard->poll() != RunStatus::Converged) {
      stop_open(i);
      break;
    }
    for (Horizon& h : horizons) {
      if (h.done) continue;
      const double w = h.psi.psi(i);
      if (w > 0.0) {
        double* acc = h.acc.data();
        for (std::size_t s = 0; s < n; ++s) acc[s] += w * cur[s];
      }
      if (i >= h.psi.right()) {
        close(h);
        --remaining;
      }
    }
    if (remaining == 0) break;
    const auto probing = [&](const Horizon& h) {
      return !h.done && h.engaged &&
             LyapunovSeries::within_budget(i + 1, h.psi.right() - (i + 1));
    };
    const bool cert_open =
        cert_active && std::any_of(horizons.begin(), horizons.end(), probing);
    if (locking && locked_count == n && guard == nullptr && !options.early_termination &&
        !cert_open) {
      // Every row is frozen: P cur == cur bitwise, so the sweep and swap are
      // provable no-ops; only the Poisson accumulations above still run.
      // Gated off under a guard (a published checkpoint must see a fresh
      // buffer) and under early termination (its delta probe reads both
      // buffers).
      ++executed;
      continue;
    }
    p.step_backward(cur, next, pool, guard, sweep_aborted, rows_out, ops,
                    locking ? &locked : nullptr, locking ? &cand : nullptr, upd.data());
    if (guard != nullptr && sweep_aborted.load(std::memory_order_relaxed)) {
      stop_open(i + 1);
      break;
    }
    ++executed;
    if (locking) {
      // Candidates were judged against the pre-sweep locked set on every
      // worker; applying after the barrier keeps the set deterministic for
      // every thread count.
      for (std::vector<StateId>& c : cand) {
        for (const StateId s : c) locked.set(s);
        locked_count += c.size();
        c.clear();
      }
    }
    if (guard != nullptr && guard->wants_checkpoint(executed)) {
      // The one shared iterate is published once per step, under the
      // largest open plan and the loosest open residual.
      std::uint64_t planned = 0;
      double residual = 0.0;
      for (const Horizon& h : horizons) {
        if (h.done) continue;
        planned = std::max(planned, h.psi.right());
        residual = std::max(residual, h.psi.tail_mass(i + 1) + h.window_epsilon);
      }
      guard->checkpoint("ctmc_timed_reachability", executed, planned, residual,
                        std::span<double>(next.data(), next.size()));
      // The checkpoint span is externally writable, so the twin-buffer
      // invariant of every locked row is void — drop all locks.
      if (locked_count != 0) {
        locked.assign(n, false);
        locked_count = 0;
      }
    }
    if (options.early_termination &&
        max_abs_diff(cur, next) <= options.early_termination_delta) {
      // Every still-open horizon fires here: the shared vector sequence
      // makes the first qualifying step the same for all of them.
      for (Horizon& h : horizons) {
        if (h.done) continue;
        const double tail = h.psi.tail_mass(i + 1);
        double* acc = h.acc.data();
        for (std::size_t s = 0; s < n; ++s) acc[s] += tail * next[s];
        h.residual += options.early_termination_delta;
        h.early_step = executed;
        close(h);
      }
      cur.swap(next);
      break;
    }
    if (cert_open) {
      // Advance the survival iterate u_{i+1} = P u_i; its sup bounds the
      // per-state distance v_inf - v_{i+1} (absorption is monotone).
      p.step_backward(u, u_next, pool, nullptr, sweep_aborted);
      u.swap(u_next);
      double ub = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        if (!(u[s] <= ub)) ub = u[s];  // NaN-latching sup
      }
      series.record(ub);
      // Not contracting within the probe cap: stop paying for the second
      // sweep; every horizon continues on its pure window.
      const bool disengage = series.should_disengage(series.size());
      for (Horizon& h : horizons) {
        if (!probing(h)) continue;
        h.probes = i + 1;
        const double tail = h.psi.tail_mass(i + 1);
        if (!disengage && tail * ub <= options.epsilon / 2.0) {
          // sum_{j>i} psi(j) (v_j - v_{i+1}) <= tail * sup u_{i+1}: fold
          // the whole remaining window onto v_{i+1}.
          double* acc = h.acc.data();
          for (std::size_t s = 0; s < n; ++s) acc[s] += tail * next[s];
          h.residual += tail * ub;
          h.k_lyapunov = executed;
          close(h);
          --remaining;
        }
      }
      if (disengage) {
        cert_active = false;
        u = std::vector<double>();
        u_next = std::vector<double>();
      }
      if (remaining == 0) {
        cur.swap(next);
        break;
      }
    }
    cur.swap(next);
  }

  for (std::size_t j = 0; j < num_horizons; ++j) {
    Horizon& h = horizons[j];
    require_finite(h.acc, "timed_reachability");
    for (std::size_t s = 0; s < n; ++s) h.acc[s] = goal[s] ? 1.0 : clamp01(h.acc[s]);
    TransientResult r{std::move(h.acc), h.psi.right(), h.executed, e};
    r.status = h.status;
    r.residual_bound = h.residual;
    r.truncation = h.resolved;
    r.k_lyapunov = h.k_lyapunov;
    r.lyapunov_probes = h.probes;
    // Shared sweeps: per horizon this counts the relaxations performed
    // while that horizon was still open (work metrics, not part of the
    // bit-identity contract).
    r.state_updates = h.state_updates;
    r.locked_final = h.locked_final;
    results[j] = std::move(r);
  }
  if (!span) return results;
  span->metric("states", n);
  span->metric("uniform_rate", e);
  if (single) {
    const Horizon& h = horizons[0];
    span->metric("lambda", e * times[0]);
    span->metric("poisson_left", h.psi.left());
    span->metric("poisson_right", h.psi.right());
    span->metric("poisson_width", h.psi.right() - h.psi.left() + 1);
    span->metric("iterations_planned", h.psi.right());
    span->metric("iterations_executed", h.executed);
    span->metric("early_termination_step", h.early_step);
    span->metric("threads", pool.size());
    span->metric("residual_bound", h.residual);
    span->metric("truncation.k_fox_glynn", h.fox_glynn_right);
    span->metric("truncation.k_effective", h.executed);
    span->metric("truncation.k_lyapunov", h.k_lyapunov);
    if (h.engaged) span->metric("truncation.probes", h.probes);
    span->metric("truncation.locked_final", h.locked_final);
    span->metric("truncation.state_updates", h.state_updates);
    return results;
  }
  span->metric("horizons", num_horizons);
  span->metric("iterations_planned_max", right_max);
  span->metric("iterations_executed", executed);
  span->metric("threads", pool.size());
  for (std::size_t j = 0; j < num_horizons; ++j) {
    const Horizon& h = horizons[j];
    Telemetry::Span hspan = options.telemetry->span("ctmc_reachability_batch.horizon");
    hspan.metric("t", times[j]);
    hspan.metric("lambda", e * times[j]);
    hspan.metric("poisson_left", h.psi.left());
    hspan.metric("poisson_right", h.psi.right());
    hspan.metric("iterations_executed", h.executed);
    hspan.metric("early_termination_step", h.early_step);
    hspan.metric("residual_bound", results[j].residual_bound);
    hspan.metric("truncation.k_fox_glynn", h.fox_glynn_right);
    hspan.metric("truncation.k_effective", h.executed);
    hspan.metric("truncation.k_lyapunov", h.k_lyapunov);
    if (h.engaged) hspan.metric("truncation.probes", h.probes);
    hspan.metric("truncation.locked_final", h.locked_final);
    hspan.metric("truncation.state_updates", h.state_updates);
  }
  return results;
}

}  // namespace

TransientResult timed_reachability(const Ctmc& chain, const BitVector& goal, double t,
                                   const TransientOptions& options) {
  if (!(t >= 0.0)) throw ModelError("timed_reachability: negative time bound");
  if (goal.size() != chain.num_states()) {
    throw ModelError("timed_reachability: goal vector size mismatch");
  }
  return std::move(reach_horizons(chain, goal, {t}, options, true)[0]);
}

std::vector<TransientResult> timed_reachability_batch(const Ctmc& chain, const BitVector& goal,
                                                      const std::vector<double>& times,
                                                      const TransientOptions& options) {
  for (const double t : times) {
    if (!(t >= 0.0)) throw ModelError("timed_reachability_batch: negative time bound");
  }
  if (goal.size() != chain.num_states()) {
    throw ModelError("timed_reachability_batch: goal vector size mismatch");
  }
  return reach_horizons(chain, goal, times, options, false);
}

TransientResult interval_reachability(const Ctmc& chain, const BitVector& goal,
                                      double t1, double t2, const TransientOptions& options) {
  if (t1 < 0.0 || t2 < t1) throw ModelError("interval_reachability: need 0 <= t1 <= t2");
  if (goal.size() != chain.num_states()) {
    throw ModelError("interval_reachability: goal vector size mismatch");
  }
  std::optional<Telemetry::Span> span;
  if (options.telemetry != nullptr) {
    span.emplace(options.telemetry->span("interval_reachability"));
  }
  // Phase A: values w(s) = Pr(s, <= t2 - t1, B), B absorbing.
  TransientResult phase_a = timed_reachability(chain, goal, t2 - t1, options);
  if (phase_a.status != RunStatus::Converged) {
    // The phase-B propagation never ran, so phase A's tail-mass bound does
    // not cover the distance to the true interval answer; only the trivial
    // bound is sound here.
    phase_a.residual_bound = 1.0;
    return phase_a;
  }
  if (t1 == 0.0) return phase_a;

  // Phase B: propagate the terminal vector w backward for t1 over the
  // unmodified chain (B is not absorbing before t1).
  const std::size_t n = chain.num_states();
  const double e = pick_rate(chain, options);
  const PoissonWindow psi = PoissonWindow::compute(e * t1, options.epsilon);
  const JumpKernel p(chain, e);
  const KernelOps* const ops = JumpKernel::ops_for(resolve_backend(options.backend));
  WorkerPool pool = make_worker_pool(options.threads, n);
  const std::vector<Counter*> row_counters =
      worker_row_counters(options.telemetry, "ctmc.rows.worker", pool.size());
  Counter* const* const rows_out = row_counters.empty() ? nullptr : row_counters.data();

  std::vector<double> cur = std::move(phase_a.probabilities);
  std::vector<double> next(n, 0.0);
  std::vector<double> acc(n, 0.0);

  RunGuard* const guard = options.guard;
  std::atomic<bool> sweep_aborted{false};
  RunStatus status = RunStatus::Converged;
  // Phase A contributes its own epsilon to the end-to-end error.
  double residual = phase_a.residual_bound + options.epsilon;

  std::uint64_t executed = phase_a.iterations_executed;
  for (std::uint64_t i = 0;; ++i) {
    if (guard != nullptr && guard->poll() != RunStatus::Converged) {
      status = guard->status();
      residual = psi.tail_mass(i) + phase_a.residual_bound + options.epsilon;
      break;
    }
    const double w = psi.psi(i);
    if (w > 0.0) {
      for (std::size_t s = 0; s < n; ++s) acc[s] += w * cur[s];
    }
    if (i >= psi.right()) break;
    p.step_backward(cur, next, pool, guard, sweep_aborted, rows_out, ops);
    if (guard != nullptr && sweep_aborted.load(std::memory_order_relaxed)) {
      status = guard->status();
      residual = psi.tail_mass(i + 1) + phase_a.residual_bound + options.epsilon;
      break;
    }
    ++executed;
    if (guard != nullptr) {
      guard->checkpoint("interval_reachability", executed,
                        phase_a.iterations + psi.right(),
                        psi.tail_mass(i + 1) + phase_a.residual_bound + options.epsilon,
                        std::span<double>(next.data(), next.size()));
    }
    if (options.early_termination &&
        max_abs_diff(cur, next) <= options.early_termination_delta) {
      const double tail = psi.tail_mass(i + 1);
      for (std::size_t s = 0; s < n; ++s) acc[s] += tail * next[s];
      residual += options.early_termination_delta;
      break;
    }
    cur.swap(next);
  }
  require_finite(acc, "interval_reachability");
  for (double& v : acc) v = clamp01(v);
  TransientResult result{std::move(acc), phase_a.iterations + psi.right(), executed, e};
  result.status = status;
  result.residual_bound = residual;
  if (span) {
    span->metric("states", n);
    span->metric("uniform_rate", e);
    span->metric("iterations_planned", result.iterations);
    span->metric("iterations_executed", executed);
    span->metric("threads", pool.size());
    span->metric("residual_bound", residual);
  }
  return result;
}

}  // namespace unicon
