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

/// The uniformized jump matrix P = R / E, with the residual mass kept
/// implicitly on the diagonal, as CSR rows seen through a GatherView:
/// y[r] = diag[r] x[r] + sum_j prob[j] x[col[j]] over the outgoing edges of
/// r (the value step y = P x).  Rows are gathers, so the sweep parallelizes
/// row-wise with a fixed accumulation order per state.
struct JumpKernel {
  std::vector<double> diag;  // per state: 1 - exit/E (excl. explicit self-loops)
  std::vector<std::uint64_t> first;  // per state: first prob/col index
  std::vector<double> prob;
  std::vector<std::uint32_t> col;  // targets

  JumpKernel(const Ctmc& chain, double rate) {
    const CsrMatrix& rates = chain.rate_matrix();
    const std::size_t n = chain.num_states();
    diag.resize(n);
    first.assign(n + 1, 0);
    prob.reserve(rates.entries());
    col.reserve(rates.entries());
    for (StateId s = 0; s < n; ++s) {
      diag[s] = 1.0 - chain.exit_rate(s) / rate;
      if (diag[s] < 0.0) diag[s] = 0.0;
      for (const SparseEntry& t : rates.row(s)) {
        const double p = t.value / rate;
        if (!std::isfinite(p) || p < 0.0) {
          throw NumericError("JumpKernel: non-finite branching probability from state " +
                             std::to_string(s));
        }
        prob.push_back(p);
        col.push_back(t.col);
      }
      first[s + 1] = prob.size();
    }
  }

  GatherView view() const {
    return GatherView{diag.size(), diag.data(), first.data(), prob.data(), col.data()};
  }
};

/// The serial backend's gather of rows [begin, end): the historical strictly
/// sequential per-row accumulation.
void gather_rows_serial(const GatherView& g, const double* x, double* out, std::uint64_t begin,
                        std::uint64_t end) {
  for (std::uint64_t r = begin; r < end; ++r) {
    double acc = g.diag[r] * x[r];
    for (std::uint64_t j = g.row_first[r]; j < g.row_first[r + 1]; ++j) {
      acc += g.prob[j] * x[g.col[j]];
    }
    out[r] = acc;
  }
}

/// True when every column of row @p r lies in @p locked or is r itself (the
/// closure half of the locking criterion).
bool row_closed(const GatherView& g, const BitVector& locked, std::size_t r) {
  for (std::uint64_t j = g.row_first[r]; j < g.row_first[r + 1]; ++j) {
    if (g.col[j] != r && !locked[g.col[j]]) return false;
  }
  return true;
}

/// One time bound of a uniformization run.  The caller plans the window;
/// uniformize fills in the rest.  Every residual adds the window's own
/// truncation error, plan.window_epsilon, to the mass it leaves out.
struct Horizon {
  TruncationPlan plan;
  std::vector<double> acc;  // sum_i psi(i) v_i
  bool done = false;
  RunStatus status = RunStatus::Converged;
  double residual = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t early_step = 0;
  std::uint64_t k_lyapunov = 0;
  std::uint64_t probes = 0;  // survival sweeps the fold checks paid for
  std::uint64_t state_updates = 0;
  std::size_t locked_final = 0;
};

/// The one uniformization driver.  Computes v_{i+1} = rows . v_i from
/// @p v0 and adds acc_h += psi_h(i) v_i for every horizon h.  The step
/// vectors do not depend on the time bound — only the Poisson weights do —
/// so one shared sweep sequence serves every horizon exactly: per horizon
/// and step these are the very multiply-adds of a run of that bound alone,
/// while the matrix work is paid once (DESIGN.md Sec. 11).  Owns guard polls
/// and sweep aborts, checkpoints, early termination, convergence locking
/// and the Lyapunov fold.  Returns the worker count.
unsigned uniformize(const JumpKernel& rows, std::vector<double> v0, std::vector<Horizon>& horizons,
                    const TransientOptions& options) {
  const GatherView view = rows.view();
  const std::size_t n = view.num_rows;
  const Backend backend = resolve_backend(options.backend);
  const KernelOps* const ops = backend == Backend::Serial ? nullptr : &kernel_ops(backend);
  WorkerPool pool = make_worker_pool(options.threads, n);
  const std::vector<Counter*> row_counters =
      worker_row_counters(options.telemetry, "ctmc.rows.worker", pool.size());
  Counter* const* const rows_out = row_counters.empty() ? nullptr : row_counters.data();

  std::vector<double> cur = std::move(v0);
  std::vector<double> next(n, 0.0);
  bool any_engaged = false;
  for (Horizon& h : horizons) {
    h.acc.assign(n, 0.0);
    h.residual = h.plan.window_epsilon;
    any_engaged = any_engaged || h.plan.engaged();
  }

  // Convergence locking: the operator is time-invariant (the Poisson weight
  // only scales the accumulation, never the sweep), so a row that
  // reproduced its bits with every column frozen is an exact fixpoint of
  // its own relaxation from the very first step.  The horizons share one
  // iterate, hence one frozen set; values are bit-identical with locking on
  // or off.
  const bool locking = options.locking;
  BitVector locked;
  std::size_t locked_count = 0;
  std::vector<std::vector<StateId>> cand;
  if (locking) {
    locked.assign(n, false);
    cand.resize(pool.size());
  }
  std::vector<std::uint64_t> upd(pool.size() * kSlotStride, 0);

  // Lyapunov certificate: on the absorbing chain, u_i(s) = Pr_s(X_i not in
  // B), starting at 1 - v_0, bounds the remaining per-state distance
  // v_inf - v_i, so once tail_mass(i+1) * sup u_{i+1} drops under epsilon/2
  // a horizon's whole unaccumulated window can be folded onto v_{i+1} at a
  // provably bounded cost.  u_i is a pure function of the kernel, so one
  // iterate serves every engaged horizon.  The probe budget: u_{i+1} is the
  // (i+1)-th survival sweep a horizon pays for, worth it only while a fold
  // would still skip more of its remaining right - (i+1) sweeps.  The
  // survival sweep keeps the serial gather on every backend, so the
  // certificate stops where it always did.
  LyapunovSeries series(options.epsilon / 2.0);
  bool cert_active = any_engaged;
  std::vector<double> u;
  std::vector<double> u_next;
  if (cert_active) {
    u.resize(n);
    for (std::size_t s = 0; s < n; ++s) u[s] = 1.0 - cur[s];
    u_next.assign(n, 0.0);
  }

  RunGuard* const guard = options.guard;
  std::atomic<bool> sweep_aborted{false};
  std::uint64_t executed = 0;
  std::size_t remaining = horizons.size();
  // Finishes horizon @p h at the current shared step.
  auto close = [&](Horizon& h) {
    h.executed = executed;
    for (std::size_t w = 0; w < pool.size(); ++w) h.state_updates += upd[w * kSlotStride];
    h.locked_final = locked_count;
    h.done = true;
  };
  // Folds the unaccumulated window mass @p tail of horizon @p h onto the
  // fresh iterate and closes it.
  auto fold = [&](Horizon& h, double tail) {
    double* acc = h.acc.data();
    for (std::size_t s = 0; s < n; ++s) acc[s] += tail * next[s];
    close(h);
  };
  // Closes every still-open horizon on a guard stop with the window mass
  // from step @p from on unaccumulated.
  auto stop_open = [&](std::uint64_t from) {
    for (Horizon& h : horizons) {
      if (h.done) continue;
      h.status = guard->status();
      h.residual = h.plan.window.tail_mass(from) + h.plan.window_epsilon;
      close(h);
    }
  };
  // next = rows . cur.  Locked rows are skipped without any write (both
  // double-buffers already hold their bits — the no-copy invariant); the
  // block is split around frozen runs, which cannot change any produced bit
  // since rows are independent.  Rows meeting the locking criterion (value
  // bit-identical to the previous iterate with every column frozen) are
  // staged per worker and applied by the caller after the barrier.
  auto sweep = [&] {
    const bool any_locked = locked_count != 0;
    pool.run(n, [&](unsigned worker, std::size_t begin, std::size_t end) {
      std::uint64_t swept = 0;
      for (std::size_t blk = begin; blk < end; blk += kGuardBlock) {
        if (guard != nullptr && guard->should_abort_sweep()) {
          sweep_aborted.store(true, std::memory_order_relaxed);
          break;
        }
        const std::size_t blk_end = std::min(end, blk + kGuardBlock);
        for (std::size_t r = blk; r < blk_end;) {
          if (any_locked && locked[r]) {
            ++r;
            continue;
          }
          std::size_t run_end = any_locked ? r + 1 : blk_end;
          while (run_end < blk_end && !locked[run_end]) ++run_end;
          if (ops != nullptr) {
            ops->gather_rows(view, cur.data(), next.data(), r, run_end);
          } else {
            gather_rows_serial(view, cur.data(), next.data(), r, run_end);
          }
          swept += run_end - r;
          for (std::size_t s = r; locking && s < run_end; ++s) {
            if (same_bits(next[s], cur[s]) && row_closed(view, locked, s)) {
              cand[worker].push_back(static_cast<StateId>(s));
            }
          }
          r = run_end;
        }
      }
      upd[worker * kSlotStride] += swept;
      if (rows_out != nullptr) rows_out[worker]->add(swept);
    });
  };

  for (std::uint64_t i = 0; remaining > 0; ++i) {
    if (guard != nullptr && guard->poll() != RunStatus::Converged) {
      stop_open(i);
      break;
    }
    for (Horizon& h : horizons) {
      if (h.done) continue;
      const double w = h.plan.window.psi(i);
      if (w > 0.0) {
        double* acc = h.acc.data();
        for (std::size_t s = 0; s < n; ++s) acc[s] += w * cur[s];
      }
      if (i >= h.plan.window.right()) {
        close(h);
        --remaining;
      }
    }
    if (remaining == 0) break;
    const auto probing = [&](const Horizon& h) {
      return !h.done && h.plan.engaged() &&
             LyapunovSeries::within_budget(i + 1, h.plan.window.right() - (i + 1));
    };
    const bool cert_open =
        cert_active && std::any_of(horizons.begin(), horizons.end(), probing);
    if (locking && locked_count == n && guard == nullptr && !options.early_termination &&
        !cert_open) {
      // Every row is frozen: rows . cur == cur bitwise, so the sweep and
      // swap are provable no-ops; only the Poisson accumulations above
      // still run.  Gated off under a guard (a published checkpoint must
      // see a fresh buffer) and under early termination (its delta probe
      // reads both buffers).
      ++executed;
      continue;
    }
    sweep();
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
        planned = std::max(planned, h.plan.window.right());
        residual = std::max(residual, h.plan.window.tail_mass(i + 1) + h.plan.window_epsilon);
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
      // The iterate has converged; the remaining window mass of every
      // still-open horizon sits on the fixed point (the shared vector
      // sequence makes the first qualifying step the same for all).
      for (Horizon& h : horizons) {
        if (h.done) continue;
        h.residual += options.early_termination_delta;
        h.early_step = executed;
        fold(h, h.plan.window.tail_mass(i + 1));
      }
      break;
    }
    if (cert_open) {
      // Advance the survival iterate u_{i+1} = P u_i; its sup bounds the
      // per-state distance v_inf - v_{i+1} (absorption is monotone).
      pool.run(n, [&](unsigned, std::size_t begin, std::size_t end) {
        gather_rows_serial(view, u.data(), u_next.data(), begin, end);
      });
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
        const double tail = h.plan.window.tail_mass(i + 1);
        if (!disengage && tail * ub <= options.epsilon / 2.0) {
          // sum_{j>i} psi(j) (v_j - v_{i+1}) <= tail * sup u_{i+1}: fold
          // the whole remaining window onto v_{i+1}.
          h.residual += tail * ub;
          h.k_lyapunov = executed;
          fold(h, tail);
          --remaining;
        }
      }
      if (disengage) {
        cert_active = false;
        u = std::vector<double>();
        u_next = std::vector<double>();
      }
    }
    cur.swap(next);
  }
  return pool.size();
}

/// The result of horizon @p h, its accumulator already finished into values.
TransientResult result_of(Horizon& h, double e) {
  TransientResult r{std::move(h.acc), h.plan.window.right(), h.executed, e};
  r.status = h.status;
  r.residual_bound = h.residual;
  r.truncation = h.plan.resolved;
  r.k_lyapunov = h.k_lyapunov;
  r.lyapunov_probes = h.probes;
  r.state_updates = h.state_updates;
  r.locked_final = h.locked_final;
  return r;
}

void truncation_metrics(Telemetry::Span& span, const Horizon& h) {
  span.metric("truncation.k_fox_glynn", h.plan.fox_glynn_right);
  span.metric("truncation.k_effective", h.executed);
  span.metric("truncation.k_lyapunov", h.k_lyapunov);
  if (h.plan.engaged()) span.metric("truncation.probes", h.probes);
  span.metric("truncation.locked_final", h.locked_final);
  span.metric("truncation.state_updates", h.state_updates);
}

/// Multi-horizon timed reachability: the driver over the backward rows of
/// the absorbing chain from the goal indicator, one horizon per time bound.
/// @p single selects the `ctmc_reachability` span of a one-horizon solve
/// over the `ctmc_reachability_batch` tree.
std::vector<TransientResult> reach_horizons(const Ctmc& chain, const BitVector& goal,
                                            const std::vector<double>& times,
                                            const TransientOptions& options, bool single) {
  std::vector<TransientResult> results;
  if (times.empty()) return results;

  std::optional<Telemetry::Span> span;
  if (options.telemetry != nullptr) {
    span.emplace(
        options.telemetry->span(single ? "ctmc_reachability" : "ctmc_reachability_batch"));
  }
  const Ctmc absorbing = chain.make_absorbing(goal);
  const std::size_t n = absorbing.num_states();
  // Uniformize at the maximal exit rate; a chain without transitions takes
  // any positive rate.
  double e = absorbing.max_exit_rate();
  if (e == 0.0) e = 1.0;
  const JumpKernel rows(absorbing, e);
  // Per-horizon truncation plan (DESIGN.md Sec. 14): an engaged plan runs
  // the window at epsilon/2 and may fold the tail once the folded error
  // provably fits under the other epsilon/2.
  std::vector<Horizon> horizons(times.size());
  for (std::size_t j = 0; j < times.size(); ++j) {
    horizons[j].plan = plan_truncation(options.truncation, e * times[j], options.epsilon);
  }
  std::vector<double> v0(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) v0[s] = goal[s] ? 1.0 : 0.0;
  const unsigned threads = uniformize(rows, std::move(v0), horizons, options);

  std::uint64_t right_max = 0;
  std::uint64_t executed = 0;
  for (Horizon& h : horizons) {
    require_finite(h.acc, "timed_reachability");
    for (std::size_t s = 0; s < n; ++s) h.acc[s] = goal[s] ? 1.0 : clamp01(h.acc[s]);
    right_max = std::max(right_max, h.plan.window.right());
    executed = std::max(executed, h.executed);
    // Shared sweeps: per horizon, state_updates counts the relaxations
    // performed while that horizon was still open (work metrics, not part
    // of the bit-identity contract).
    results.push_back(result_of(h, e));
  }
  if (!span) return results;
  if (single) {
    const Horizon& h = horizons[0];
    const PoissonWindow& psi = h.plan.window;
    span->metric("states", n);
    span->metric("uniform_rate", e);
    span->metric("lambda", e * times[0]);
    span->metric("poisson_left", psi.left());
    span->metric("poisson_right", psi.right());
    span->metric("poisson_width", psi.right() - psi.left() + 1);
    span->metric("iterations_planned", psi.right());
    span->metric("iterations_executed", h.executed);
    span->metric("early_termination_step", h.early_step);
    span->metric("threads", threads);
    span->metric("residual_bound", h.residual);
    truncation_metrics(*span, h);
    return results;
  }
  span->metric("states", n);
  span->metric("uniform_rate", e);
  span->metric("horizons", times.size());
  span->metric("iterations_planned_max", right_max);
  span->metric("iterations_executed", executed);
  span->metric("threads", threads);
  for (std::size_t j = 0; j < times.size(); ++j) {
    const Horizon& h = horizons[j];
    Telemetry::Span hspan = options.telemetry->span("ctmc_reachability_batch.horizon");
    hspan.metric("t", times[j]);
    hspan.metric("lambda", e * times[j]);
    hspan.metric("poisson_left", h.plan.window.left());
    hspan.metric("poisson_right", h.plan.window.right());
    hspan.metric("iterations_executed", h.executed);
    hspan.metric("early_termination_step", h.early_step);
    hspan.metric("residual_bound", h.residual);
    truncation_metrics(hspan, h);
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

}  // namespace unicon
