// Solver-facing side of the backend interface (see support/backend.hpp for
// the Backend enum, KernelOps table and array views — re-exported here).
//
// Two kernel representations feed the Algorithm-1 sweep:
//
//  - DiscreteKernel: the flat kernel over *all* states, one entry per rate
//    entry of the model.  The serial backend iterates it exactly as the
//    historical solver did — bit-identical results, including the strictly
//    sequential accumulation order.
//
//  - DenseKernel: the kernel restricted to the states the sweep actually
//    relaxes.  Goal states all carry the same iterate value G_i (the goal
//    update q_i = psi(i) + q_{i+1} starts from 0 everywhere in B, so
//    G_i = sum_{m=i..k} psi(m) uniformly — uniformity by construction once
//    more), which lets the mass into B fold into a per-transition scalar
//    goal_pr instead of per-entry gathers; avoided states are pinned to
//    exactly +0.0, so entries into them are dropped outright.  On
//    goal-heavy models (the FTWC fleet at N=64 is ~94% goal states) this
//    shrinks the gathered iterate by an order of magnitude and makes it
//    cache-resident — that, not the vector ALU, is where most of the simd
//    backend's speedup comes from.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmdp/ctmdp.hpp"
#include "support/backend.hpp"
#include "support/bit_vector.hpp"

namespace unicon {

/// Flat, precomputed discrete kernel of the uniform CTMDP: the branching
/// probabilities Pr_R(s, s') = R(s') / E_R fused with their target columns,
/// per-transition entry ranges, per-state transition ranges, and the
/// per-transition goal mass Pr_R(s, B).  Built once per solve; the sweeps
/// then run on plain index arithmetic instead of re-deriving span offsets
/// from the model's entry storage each iteration (which also dereferenced
/// `rates(0)` as a base pointer — out of range on a model without
/// transitions).
struct DiscreteKernel {
  std::vector<std::uint64_t> state_first;  // per state: first transition index
  std::vector<std::uint64_t> entry_first;  // per transition: first prob/col index
  std::vector<double> prob;                // fused branching probabilities
  std::vector<std::uint32_t> col;          // fused target states
  std::vector<double> goal_pr;             // per transition

  DiscreteKernel(const Ctmdp& model, const BitVector& goal);

  /// psi-weighted one-step value of transition @p tr against values @p q.
  double transition_value(std::uint64_t tr, double w, const double* q) const {
    double acc = w * goal_pr[tr];
    const std::uint64_t last = entry_first[tr + 1];
    for (std::uint64_t j = entry_first[tr]; j < last; ++j) acc += prob[j] * q[col[j]];
    return acc;
  }
};

/// Dense (non-goal, non-avoided rows only) kernel for the simd backends;
/// owns the arrays a DenseKernelView points into.  Column indices address
/// dense rows, so the iterate the kernels gather from has num_rows()
/// entries, not num_states().
struct DenseKernel {
  /// dense_index value for states that have no dense row (goal/avoided).
  static constexpr std::uint32_t kNotDense = static_cast<std::uint32_t>(-1);

  std::vector<std::uint32_t> dense_index;  // [num_states] -> row or kNotDense
  std::vector<std::uint32_t> dense_state;  // [num_rows] -> state
  std::vector<std::uint64_t> row_first;    // [num_rows + 1] -> dense transition
  std::vector<std::uint64_t> entry_first;  // [num_trans + 1] -> dense entry
  std::vector<double> goal_pr;             // [num_trans] mass into goal
  std::vector<double> prob;                // [num_entries]
  std::vector<std::uint32_t> col;          // [num_entries] -> dense row

  /// @p avoid may be empty (no avoid constraint) or num_states() long;
  /// a state flagged in both goal and avoid counts as goal, matching the
  /// solver's precedence.  Validates rates exactly as DiscreteKernel.
  DenseKernel(const Ctmdp& model, const BitVector& goal, const BitVector& avoid);

  std::uint64_t num_rows() const { return dense_state.size(); }

  DenseKernelView view() const {
    DenseKernelView v;
    v.num_rows = num_rows();
    v.row_first = row_first.data();
    v.entry_first = entry_first.data();
    v.goal_pr = goal_pr.data();
    v.prob = prob.data();
    v.col = col.data();
    return v;
  }
};

}  // namespace unicon
