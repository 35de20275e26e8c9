#include "ctmdp/scheduler.hpp"

#include <algorithm>
#include <string>

#include "support/errors.hpp"

namespace unicon {

StationaryScheduler StationaryScheduler::first_transition(const Ctmdp& model) {
  std::vector<std::uint64_t> choice(model.num_states(), kNoTransition);
  for (StateId s = 0; s < model.num_states(); ++s) {
    const auto [first, last] = model.transition_range(s);
    if (first != last) choice[s] = first;
  }
  return StationaryScheduler(std::move(choice));
}

StationaryScheduler StationaryScheduler::from_initial_decisions(
    const Ctmdp& model, const TimedReachabilityResult& result) {
  if (result.initial_decision.size() != model.num_states()) {
    throw ModelError(
        "StationaryScheduler: result has no initial decisions (enable extract_scheduler)");
  }
  StationaryScheduler scheduler = first_transition(model);
  for (StateId s = 0; s < model.num_states(); ++s) {
    if (result.initial_decision[s] != kNoTransition) {
      scheduler.choice_[s] = result.initial_decision[s];
    }
  }
  return scheduler;
}

void StationaryScheduler::validate(const Ctmdp& model) const {
  if (choice_.size() != model.num_states()) {
    throw ModelError("StationaryScheduler: size mismatch");
  }
  for (StateId s = 0; s < model.num_states(); ++s) {
    const auto [first, last] = model.transition_range(s);
    if (first == last) continue;
    if (choice_[s] < first || choice_[s] >= last) {
      throw ModelError("StationaryScheduler: choice out of range for state " + std::to_string(s));
    }
  }
}

Ctmc StationaryScheduler::induced_ctmc(const Ctmdp& model) const {
  validate(model);
  CtmcBuilder b(model.num_states());
  b.ensure_states(model.num_states());
  b.set_initial(model.initial());
  for (StateId s = 0; s < model.num_states(); ++s) {
    const auto [first, last] = model.transition_range(s);
    if (first == last) continue;
    for (const SparseEntry& e : model.rates(choice_[s])) b.add_transition(s, e.value, e.col);
  }
  return b.build();
}

CountdownScheduler CountdownScheduler::from_result(const TimedReachabilityResult& result) {
  if (result.decisions.empty()) {
    throw ModelError(
        "CountdownScheduler: result has no decision table (enable extract_scheduler and check "
        "max_decision_entries)");
  }
  return CountdownScheduler(result.decisions);
}

std::uint64_t CountdownScheduler::choice(std::uint64_t i, StateId s) const {
  if (i == 0) throw ModelError("CountdownScheduler: steps are 1-based");
  const auto& row = decisions_[std::min<std::size_t>(i - 1, decisions_.size() - 1)];
  // Early termination leaves the rows below its stop step empty.
  if (s >= row.size()) throw ModelError("CountdownScheduler: no decision recorded at this step");
  return row[s];
}

}  // namespace unicon
