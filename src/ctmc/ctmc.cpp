#include "ctmc/ctmc.hpp"

#include <algorithm>
#include <cmath>

#include "support/errors.hpp"

namespace unicon {

double Ctmc::max_exit_rate() const {
  double m = 0.0;
  for (StateId s = 0; s < num_states(); ++s) m = std::max(m, exit_rate(s));
  return m;
}

std::optional<double> Ctmc::uniform_rate(double tol) const {
  if (num_states() == 0) return 0.0;
  const double e0 = exit_rate(0);
  for (StateId s = 1; s < num_states(); ++s) {
    if (std::fabs(exit_rate(s) - e0) > tol) return std::nullopt;
  }
  return e0;
}

Ctmc Ctmc::uniformize(double rate) const {
  const double max_rate = max_exit_rate();
  double e = rate == 0.0 ? max_rate : rate;
  if (e + 1e-12 < max_rate) {
    throw UniformityError("Ctmc::uniformize: rate below maximal exit rate");
  }
  CtmcBuilder b(num_states());
  b.ensure_states(num_states());
  b.set_initial(initial_);
  for (StateId s = 0; s < num_states(); ++s) {
    double exit = 0.0;
    for (const SparseEntry& t : out(s)) {
      b.add_transition(s, t.value, t.col);
      exit += t.value;
    }
    const double pad = e - exit;
    if (pad > 1e-12) b.add_transition(s, pad, s);
  }
  return b.build();
}

StateId CtmcBuilder::add_state() {
  builder_.reserve_rows(num_states_ + 1);
  return static_cast<StateId>(num_states_++);
}

void CtmcBuilder::ensure_states(std::size_t n) {
  if (n > num_states_) {
    num_states_ = n;
    builder_.reserve_rows(n);
  }
}

void CtmcBuilder::add_transition(StateId from, double rate, StateId to) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw ModelError("Ctmc: transition rate must be positive and finite");
  }
  ensure_states(std::max<std::size_t>(from + 1, to + 1));
  builder_.add(from, to, rate);
}

Ctmc CtmcBuilder::build() {
  if (num_states_ == 0) throw ModelError("Ctmc: at least one state required");
  if (initial_ >= num_states_) throw ModelError("Ctmc: initial state out of range");
  builder_.reserve_rows(num_states_);
  Ctmc c;
  c.rates_ = builder_.finish();
  c.initial_ = initial_;
  num_states_ = 0;
  initial_ = 0;
  return c;
}

}  // namespace unicon
