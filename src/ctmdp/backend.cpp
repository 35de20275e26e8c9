#include "ctmdp/backend.hpp"

#include <cmath>
#include <string>

#include "support/errors.hpp"

namespace unicon {

DiscreteKernel::DiscreteKernel(const Ctmdp& model, const BitVector& goal) {
  const std::size_t n = model.num_states();
  const std::size_t m = model.num_transitions();
  state_first.resize(n + 1);
  entry_first.resize(m + 1);
  prob.reserve(model.num_rate_entries());
  col.reserve(model.num_rate_entries());
  goal_pr.assign(m, 0.0);
  state_first[0] = 0;
  for (StateId s = 0; s < n; ++s) state_first[s + 1] = model.transition_range(s).second;
  for (std::uint64_t t = 0; t < m; ++t) {
    entry_first[t] = prob.size();
    const double e = model.exit_rate(t);
    if (!std::isfinite(e) || e <= 0.0) {
      throw NumericError("DiscreteKernel: non-finite or non-positive exit rate on transition " +
                         std::to_string(t));
    }
    double g = 0.0;
    for (const SparseEntry& entry : model.rates(t)) {
      const double p = entry.value / e;
      if (!std::isfinite(p) || p < 0.0) {
        throw NumericError("DiscreteKernel: non-finite branching probability on transition " +
                           std::to_string(t));
      }
      prob.push_back(p);
      col.push_back(entry.col);
      if (goal[entry.col]) g += p;
    }
    goal_pr[t] = g;
  }
  entry_first[m] = prob.size();
}

DenseKernel::DenseKernel(const Ctmdp& model, const BitVector& goal, const BitVector& avoid) {
  const std::size_t n = model.num_states();
  if (n >= kNotDense) {
    throw ModelError("DenseKernel: state space too large for 32-bit dense columns");
  }
  const auto avoided = [&](StateId s) { return !avoid.empty() && avoid[s] && !goal[s]; };

  dense_index.assign(n, kNotDense);
  for (StateId s = 0; s < n; ++s) {
    if (goal[s] || avoided(s)) continue;
    dense_index[s] = static_cast<std::uint32_t>(dense_state.size());
    dense_state.push_back(static_cast<std::uint32_t>(s));
  }

  row_first.reserve(dense_state.size() + 1);
  row_first.push_back(0);
  for (const std::uint32_t s : dense_state) {
    const auto [first, last] = model.transition_range(s);
    for (std::uint64_t t = first; t < last; ++t) {
      entry_first.push_back(prob.size());
      const double e = model.exit_rate(t);
      if (!std::isfinite(e) || e <= 0.0) {
        throw NumericError("DenseKernel: non-finite or non-positive exit rate on transition " +
                           std::to_string(t));
      }
      double g = 0.0;
      for (const SparseEntry& entry : model.rates(t)) {
        const double p = entry.value / e;
        if (!std::isfinite(p) || p < 0.0) {
          throw NumericError("DenseKernel: non-finite branching probability on transition " +
                             std::to_string(t));
        }
        if (goal[entry.col]) {
          g += p;
        } else if (avoided(entry.col)) {
          // Avoided states hold exactly +0.0 in every iterate; dropping the
          // entry is bit-equal to multiplying by it.
        } else {
          prob.push_back(p);
          col.push_back(dense_index[entry.col]);
        }
      }
      goal_pr.push_back(g);
    }
    row_first.push_back(goal_pr.size());
  }
  entry_first.push_back(prob.size());
}

}  // namespace unicon
