#include "ctmc/transient.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <span>
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

/// The uniformized jump matrix P = R / E of the goal-absorbed chain over its
/// live (non-goal) states, as CSR rows seen through a GatherView:
/// y[r] = diag[r] x[r] + sum_j prob[j] x[col[j]] over the outgoing edges of
/// live row r (the value step y = P x).  A goal state is absorbing, so its
/// iterate entry never changes: every goal column is remapped to one shared
/// slot, compact index `live`, that no sweep writes.  Row r is the r-th live
/// state in id order with its entries in their original order, so every
/// produced bit equals the full-state sweep's on every backend (DESIGN.md
/// Sec. 14.3).  Rows are gathers, so the sweep parallelizes row-wise with a
/// fixed accumulation order per state.
struct JumpKernel {
  std::size_t live = 0;      // live rows; the goal slot is compact index `live`
  double rate = 1.0;         // E: the largest live exit rate (1 when all are 0)
  std::vector<double> diag;  // per live row: 1 - exit/E (excl. explicit self-loops)
  std::vector<std::uint64_t> first;  // per live row: first prob/col index
  std::vector<double> prob;
  std::vector<std::uint32_t> col;  // compact targets

  JumpKernel(const Ctmc& chain, const BitVector& goal) {
    const CsrMatrix& rates = chain.rate_matrix();
    const std::size_t n = chain.num_states();
    std::vector<std::uint32_t> index(n);  // compact row of each live state
    std::size_t entries = 0;
    double max_exit = 0.0;
    for (StateId s = 0; s < n; ++s) {
      if (goal[s]) continue;
      index[s] = static_cast<std::uint32_t>(live++);
      const double exit = chain.exit_rate(s);
      diag.push_back(exit);
      max_exit = std::max(max_exit, exit);
      entries += rates.row(s).size();
    }
    // Uniformize at the maximal exit rate; a chain without live transitions
    // takes any positive rate.
    if (max_exit > 0.0) rate = max_exit;
    const auto slot = static_cast<std::uint32_t>(live);
    first.assign(live + 1, 0);
    prob.reserve(entries);
    col.reserve(entries);
    std::size_t r = 0;
    for (StateId s = 0; s < n; ++s) {
      if (goal[s]) continue;
      diag[r] = 1.0 - diag[r] / rate;
      if (diag[r] < 0.0) diag[r] = 0.0;
      for (const SparseEntry& t : rates.row(s)) {
        const double p = t.value / rate;
        if (!std::isfinite(p) || p < 0.0) {
          throw NumericError("JumpKernel: non-finite branching probability from state " +
                             std::to_string(s));
        }
        prob.push_back(p);
        col.push_back(goal[t.col] ? slot : index[t.col]);
      }
      first[++r] = prob.size();
    }
  }

  GatherView view() const {
    return GatherView{live, diag.data(), first.data(), prob.data(), col.data()};
  }
};

/// Writes the compact vector @p x (live rows, then the goal slot) as one
/// entry per state of the chain: every goal state reads the slot.
void expand(const BitVector& goal, const std::vector<double>& x, std::span<double> out) {
  const double slot = x.back();
  std::size_t r = 0;
  for (std::size_t s = 0; s < out.size(); ++s) out[s] = goal[s] ? slot : x[r++];
}

/// The inverse of expand for an externally rewritable vector: live entries
/// return to their rows, and a goal entry whose bits left the slot's
/// rewrites the slot (so a poisoned goal entry still reaches every reader).
void contract(const BitVector& goal, std::span<const double> in, std::vector<double>& x) {
  const double slot = x.back();
  std::size_t r = 0;
  for (std::size_t s = 0; s < in.size(); ++s) {
    if (!goal[s]) {
      x[r++] = in[s];
    } else if (!same_bits(in[s], slot)) {
      x.back() = in[s];
    }
  }
}

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
  std::vector<double> acc;  // sum_i psi(i) v_i over the compact rows and the goal slot
  bool probe = false;       // engaged, and the probe gate left its fold possible
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

/// The probe gate (DESIGN.md Sec. 14.2): false when the fold of @p plan
/// provably cannot fire at any probe step of its budget.  The fold test
/// after a survival sweeps is tail_mass(a) * sup u_a <= @p stop_epsilon.
/// lb_a = dmax^a, by repeated multiplication, is a bit-exact lower bound on
/// the computed sup u_a, where @p dmax is the largest live diagonal: the
/// serial survival gather starts row r with diag[r] * u[r] and then only
/// adds non-negative terms, u_0 = 1 on every live row, and round-to-nearest
/// is monotone.  So tail * lb_a > stop_epsilon at every probe step rules
/// the fold out, and the horizon need not pay for a single survival sweep.
bool fold_possible(const TruncationPlan& plan, double dmax, double stop_epsilon) {
  const std::uint64_t right = plan.window.right();
  double lb = 1.0;
  for (std::uint64_t a = 1; a < right && LyapunovSeries::within_budget(a, right - a); ++a) {
    lb *= dmax;
    if (plan.window.tail_mass(a) * lb <= stop_epsilon) return true;
  }
  return false;
}

/// The one uniformization driver.  Computes v_{i+1} = rows . v_i from
/// the goal indicator and adds acc_h += psi_h(i) v_i for every horizon h,
/// all on compact vectors (the live rows, then the goal slot).  The step
/// vectors do not depend on the time bound — only the Poisson weights do —
/// so one shared sweep sequence serves every horizon exactly: per horizon
/// and step these are the very multiply-adds of a run of that bound alone,
/// while the matrix work is paid once (DESIGN.md Sec. 11).  Owns guard polls
/// and sweep aborts, checkpoints (published with one entry per state of
/// @p goal), early termination, convergence locking and the Lyapunov fold.
/// Returns the worker count.
unsigned uniformize(const JumpKernel& rows, const BitVector& goal, std::vector<Horizon>& horizons,
                    const TransientOptions& options) {
  const GatherView view = rows.view();
  const std::size_t live = rows.live;
  const std::size_t slot = live;
  const std::size_t width = live + 1;
  const Backend backend = resolve_backend(options.backend);
  const KernelOps* const ops = backend == Backend::Serial ? nullptr : &kernel_ops(backend);
  WorkerPool pool = make_worker_pool(options.threads, live);
  const std::vector<Counter*> row_counters =
      worker_row_counters(options.telemetry, "ctmc.rows.worker", pool.size());
  Counter* const* const rows_out = row_counters.empty() ? nullptr : row_counters.data();

  // v_0 is the goal indicator: 0 on every live row, 1 in the slot.  No
  // sweep writes the slot, so both buffers hold it.
  std::vector<double> cur(width, 0.0);
  cur[slot] = 1.0;
  std::vector<double> next = cur;
  // The probe gate needs the largest live diagonal; every diagonal lies in
  // [0, 1] because E is the largest live exit rate.
  double dmax = 0.0;
  for (const double d : rows.diag) dmax = std::max(dmax, d);
  bool any_probe = false;
  for (Horizon& h : horizons) {
    h.acc.assign(width, 0.0);
    h.residual = h.plan.window_epsilon;
    h.probe = h.plan.engaged() && fold_possible(h.plan, dmax, options.epsilon / 2.0);
    any_probe = any_probe || h.probe;
  }

  // Convergence locking: the operator is time-invariant (the Poisson weight
  // only scales the accumulation, never the sweep), so a row that
  // reproduced its bits with every column frozen is an exact fixpoint of
  // its own relaxation from the very first step.  The horizons share one
  // iterate, hence one frozen set; values are bit-identical with locking on
  // or off.  The goal slot is frozen from the start; goal rows are reported
  // as locked rows.
  const bool locking = options.locking;
  const std::size_t frozen_goals = locking ? goal.size() - live : 0;
  BitVector locked;
  std::size_t locked_count = 0;  // live rows only
  std::vector<std::vector<StateId>> cand;
  const auto reset_locks = [&] {
    locked.assign(width, false);
    locked.set(slot);
    locked_count = 0;
  };
  if (locking) {
    reset_locks();
    cand.resize(pool.size());
  }
  std::vector<std::uint64_t> upd(pool.size() * kSlotStride, 0);

  // Lyapunov certificate: on the absorbing chain, u_i(s) = Pr_s(X_i not in
  // B), starting at 1 - v_0, bounds the remaining per-state distance
  // v_inf - v_i, so once tail_mass(i+1) * sup u_{i+1} drops under epsilon/2
  // a horizon's whole unaccumulated window can be folded onto v_{i+1} at a
  // provably bounded cost.  u_i is a pure function of the kernel, so one
  // iterate serves every probing horizon.  The probe budget: u_{i+1} is the
  // (i+1)-th survival sweep a horizon pays for, worth it only while a fold
  // would still skip more of its remaining right - (i+1) sweeps.  The
  // survival sweep keeps the serial gather on every backend, so the
  // certificate stops where it always did.  A goal state never survives:
  // the slot holds 0.
  LyapunovSeries series(options.epsilon / 2.0);
  bool cert_active = any_probe;
  std::vector<double> u;
  std::vector<double> u_next;
  if (cert_active) {
    u.assign(width, 1.0);
    u[slot] = 0.0;
    u_next.assign(width, 0.0);
  }

  RunGuard* const guard = options.guard;
  std::vector<double> published;  // a checkpoint's one entry per state
  std::atomic<bool> sweep_aborted{false};
  std::uint64_t executed = 0;
  std::size_t remaining = horizons.size();
  // Finishes horizon @p h at the current shared step.
  auto close = [&](Horizon& h) {
    h.executed = executed;
    for (std::size_t w = 0; w < pool.size(); ++w) h.state_updates += upd[w * kSlotStride];
    h.locked_final = locked_count + frozen_goals;
    h.done = true;
  };
  // Folds the unaccumulated window mass @p tail of horizon @p h onto the
  // fresh iterate and closes it.
  auto fold = [&](Horizon& h, double tail) {
    double* acc = h.acc.data();
    for (std::size_t s = 0; s < width; ++s) acc[s] += tail * next[s];
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
  // next = rows . cur over the live rows.  Locked rows are skipped without
  // any write (both double-buffers already hold their bits — the no-copy
  // invariant); the block is split around frozen runs, which cannot change
  // any produced bit since rows are independent.  Rows meeting the locking
  // criterion (value bit-identical to the previous iterate with every
  // column frozen) are staged per worker and applied by the caller after
  // the barrier.
  auto sweep = [&] {
    const bool any_locked = locked_count != 0;
    pool.run(live, [&](unsigned worker, std::size_t begin, std::size_t end) {
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
        for (std::size_t s = 0; s < width; ++s) acc[s] += w * cur[s];
      }
      if (i >= h.plan.window.right()) {
        close(h);
        --remaining;
      }
    }
    if (remaining == 0) break;
    const auto probing = [&](const Horizon& h) {
      return !h.done && h.probe &&
             LyapunovSeries::within_budget(i + 1, h.plan.window.right() - (i + 1));
    };
    const bool cert_open =
        cert_active && std::any_of(horizons.begin(), horizons.end(), probing);
    if (locking && locked_count == live && guard == nullptr && !options.early_termination &&
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
      // largest open plan and the loosest open residual, with one entry
      // per state.
      std::uint64_t planned = 0;
      double residual = 0.0;
      for (const Horizon& h : horizons) {
        if (h.done) continue;
        planned = std::max(planned, h.plan.window.right());
        residual = std::max(residual, h.plan.window.tail_mass(i + 1) + h.plan.window_epsilon);
      }
      published.resize(goal.size());
      expand(goal, next, published);
      guard->checkpoint("ctmc_timed_reachability", executed, planned, residual,
                        std::span<double>(published.data(), published.size()));
      contract(goal, published, next);
      // The checkpoint span is externally writable, so the twin-buffer
      // invariant of every locked row is void — drop all locks.
      if (locked_count != 0) reset_locks();
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
      pool.run(live, [&](unsigned, std::size_t begin, std::size_t end) {
        gather_rows_serial(view, u.data(), u_next.data(), begin, end);
      });
      u.swap(u_next);
      double ub = 0.0;
      for (std::size_t s = 0; s < live; ++s) {
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
    // No sweep writes the slot: carry a checkpoint's rewrite of it into the
    // other buffer, as the goal rows' own relaxation would.
    cur[slot] = next[slot];
    cur.swap(next);
  }
  return pool.size();
}

/// The result of horizon @p h with its finished per-state @p values.
TransientResult result_of(const Horizon& h, std::vector<double> values, double e) {
  TransientResult r{std::move(values), h.plan.window.right(), h.executed, e};
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
  const std::size_t n = chain.num_states();
  const JumpKernel rows(chain, goal);
  const double e = rows.rate;
  // Per-horizon truncation plan (DESIGN.md Sec. 14): an engaged plan runs
  // the window at epsilon/2 and may fold the tail once the folded error
  // provably fits under the other epsilon/2.
  std::vector<Horizon> horizons(times.size());
  for (std::size_t j = 0; j < times.size(); ++j) {
    horizons[j].plan = plan_truncation(options.truncation, e * times[j], options.epsilon);
  }
  const unsigned threads = uniformize(rows, goal, horizons, options);

  std::uint64_t right_max = 0;
  std::uint64_t executed = 0;
  for (Horizon& h : horizons) {
    // Expanded before the finiteness scan, so an error names a state id.
    std::vector<double> values(n);
    expand(goal, h.acc, values);
    h.acc = std::vector<double>();
    require_finite(values, "timed_reachability");
    for (std::size_t s = 0; s < n; ++s) values[s] = goal[s] ? 1.0 : clamp01(values[s]);
    right_max = std::max(right_max, h.plan.window.right());
    executed = std::max(executed, h.executed);
    // Shared sweeps: per horizon, state_updates counts the relaxations
    // performed while that horizon was still open (work metrics, not part
    // of the bit-identity contract).
    results.push_back(result_of(h, std::move(values), e));
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
