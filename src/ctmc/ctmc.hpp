// Continuous-time Markov chains.
//
// A CTMC is stored as a sparse rate matrix (self-loops permitted — they are
// meaningful after uniformization) plus an initial state.  CTMCs are the
// stochastic substrate of the paper: phase-type distributions are absorbing
// CTMCs, time constraints are uniformized CTMCs wrapped by the elapse
// operator, and the Figure 4 baseline is plain CTMC transient analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "support/numerics.hpp"
#include "support/sparse.hpp"
#include "support/symbols.hpp"

namespace unicon {

class CtmcBuilder;

class Ctmc {
 public:
  Ctmc() = default;

  std::size_t num_states() const { return rates_.rows(); }
  std::size_t num_transitions() const { return rates_.entries(); }
  StateId initial() const { return initial_; }

  /// Rates emanating from @p s (including any self-loop).
  std::span<const SparseEntry> out(StateId s) const { return rates_.row(s); }
  const CsrMatrix& rate_matrix() const { return rates_; }

  /// Exit rate E_s = r(s, S) (self-loops included).
  double exit_rate(StateId s) const { return rates_.row_sum(s); }

  /// Largest exit rate over all states.
  double max_exit_rate() const;

  /// If all exit rates agree relatively up to @p tol (rates_agree), the
  /// common rate; else nullopt.
  /// A CTMC with rate 0 everywhere (no transitions) is uniform with E = 0.
  std::optional<double> uniform_rate(double tol = kUniformityTolerance) const;

  bool is_uniform(double tol = kUniformityTolerance) const {
    return uniform_rate(tol).has_value();
  }

  /// Jensen uniformization [19]: pads every state with a self-loop so that
  /// all exit rates equal @p rate.  @p rate must be >= the maximal exit
  /// rate; passing 0 selects the maximal exit rate itself.  The transient
  /// behaviour (state probabilities over time) is unchanged.
  Ctmc uniformize(double rate = 0.0) const;

  std::size_t memory_bytes() const { return rates_.memory_bytes(); }

 private:
  friend class CtmcBuilder;
  CsrMatrix rates_;
  StateId initial_ = 0;
};

class CtmcBuilder {
 public:
  explicit CtmcBuilder(std::size_t num_states = 0) : builder_(num_states) {}

  StateId add_state();
  void ensure_states(std::size_t n);
  void set_initial(StateId s) { initial_ = s; }

  /// Adds a Markov transition with @p rate > 0; parallel transitions
  /// accumulate (the Markov transition relation is multiset-like).
  void add_transition(StateId from, double rate, StateId to);

  Ctmc build();

 private:
  CsrBuilder builder_;
  std::size_t num_states_ = 0;
  StateId initial_ = 0;
};

}  // namespace unicon
