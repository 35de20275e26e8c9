#include "ftwc/compositional.hpp"

#include <algorithm>
#include <charconv>
#include <functional>

#include "bisim/bisimulation.hpp"
#include "ftwc/components.hpp"
#include "imc/compose.hpp"
#include "support/errors.hpp"

namespace unicon::ftwc {

namespace {

std::vector<std::string> split_tuple(const std::string& name);

/// Number of non-operational components encoded in a (possibly nested)
/// state-name fragment: a plain count ("3"), the tokens "o" (operational)
/// and "d" (down), or a tuple of fragments.  Other tokens (elapse phases,
/// repair-unit states) contribute nothing.
unsigned count_down(const std::string& fragment) {
  if (!fragment.empty() && fragment.front() == '(') {
    unsigned total = 0;
    for (const std::string& part : split_tuple(fragment)) total += count_down(part);
    return total;
  }
  if (fragment == "d") return 1;
  if (!fragment.empty() && (std::isdigit(static_cast<unsigned char>(fragment[0])) != 0)) {
    unsigned value = 0;
    std::from_chars(fragment.data(), fragment.data() + fragment.size(), value);
    return value;
  }
  return 0;
}

/// Splits "(a,b,c)" at the top level.
std::vector<std::string> split_tuple(const std::string& name) {
  std::vector<std::string> parts;
  if (name.size() < 2 || name.front() != '(' || name.back() != ')') {
    throw ModelError("ftwc: unexpected composite state name: " + name);
  }
  int depth = 0;
  std::string current;
  for (std::size_t i = 1; i + 1 < name.size(); ++i) {
    const char ch = name[i];
    if (ch == '(') ++depth;
    if (ch == ')') --depth;
    if (ch == ',' && depth == 0) {
      parts.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  parts.push_back(std::move(current));
  return parts;
}

/// Minimizes @p m respecting the observable status (the bisimulation is
/// seeded with the @p key classes so that e.g. the zero-time instant
/// between an elapsed failure delay and the fail event does not merge an
/// operational with a down state) and renames each quotient state via the
/// key of its representative.
Imc minimize_renamed(const Imc& m, const std::function<std::string(const std::string&)>& key,
                     StageStats* stats) {
  std::vector<std::uint32_t> labels(m.num_states());
  {
    std::unordered_map<std::string, std::uint32_t> label_ids;
    for (StateId s = 0; s < m.num_states(); ++s) {
      const auto [it, inserted] =
          label_ids.emplace(key(m.state_name(s)), static_cast<std::uint32_t>(label_ids.size()));
      labels[s] = it->second;
    }
  }
  const Partition p = branching_bisimulation(m, &labels);

  std::vector<std::string> block_key(p.num_blocks);
  BitVector seen(p.num_blocks, false);
  for (StateId s = 0; s < m.num_states(); ++s) {
    const std::string k = key(m.state_name(s));
    const std::uint32_t blk = p.block_of[s];
    if (!seen[blk]) {
      seen[blk] = true;
      block_key[blk] = k;
    } else if (block_key[blk] != k) {
      throw ModelError("ftwc: bisimulation merged states with different observable status (" +
                       block_key[blk] + " vs " + k + ")");
    }
  }

  Imc q = quotient(m, p);
  std::vector<std::string> names(q.num_states());
  for (StateId s = 0; s < q.num_states(); ++s) names[s] = key(q.state_name(s));
  q = q.rename_states(std::move(names));
  if (stats != nullptr) {
    stats->states_before_minimization = m.num_states();
    stats->states = q.num_states();
    stats->interactive_transitions = q.num_interactive_transitions();
    stats->markov_transitions = q.num_markov_transitions();
  }
  return q;
}

std::string status_key(const std::string& name) {
  // Component names look like "(o,idle,done)" or already "o"/"d".
  return count_down(name) == 0 ? "o" : "d";
}

std::string count_key(const std::string& name) { return std::to_string(count_down(name)); }

}  // namespace

Config parse_config(const std::string& name, unsigned n) {
  const std::vector<std::string> parts = split_tuple(name);
  if (parts.size() != 6) {
    throw ModelError("ftwc: expected 6-tuple state name, got: " + name);
  }
  Config c;
  c.failed_left = count_down(parts[0]);
  c.failed_right = count_down(parts[1]);
  c.sw_left_up = count_down(parts[2]) == 0;
  c.sw_right_up = count_down(parts[3]) == 0;
  c.backbone_up = count_down(parts[4]) == 0;
  if (c.failed_left > n || c.failed_right > n) {
    throw ModelError("ftwc: failure count out of range in name: " + name);
  }
  return c;
}

CompositionalResult build_compositional(const Parameters& params,
                                        const CompositionalOptions& options) {
  auto actions = std::make_shared<ActionTable>();
  CompositionalResult result;

  ExploreOptions explore;
  explore.record_names = true;
  explore.max_states = options.max_states;

  auto maybe_minimize = [&](Imc m, const std::function<std::string(const std::string&)>& key,
                            const std::string& stage) {
    StageStats stats;
    stats.stage = stage;
    if (options.minimize) {
      m = minimize_renamed(m, key, &stats);
    } else {
      stats.states_before_minimization = m.num_states();
      stats.states = m.num_states();
      stats.interactive_transitions = m.num_interactive_transitions();
      stats.markov_transitions = m.num_markov_transitions();
    }
    result.stages.push_back(stats);
    return m;
  };

  // Per-class components (Fig. 3) and workstation groups.
  auto build_group = [&](Component c, unsigned copies) {
    Imc unit = component_imc(c, params, actions);
    unit = maybe_minimize(std::move(unit), status_key, std::string("component ") + tag(c));
    Imc group = unit;
    for (unsigned i = 1; i < copies; ++i) {
      Imc next = CompositionExpr::interleave(CompositionExpr::leaf(group),
                                             CompositionExpr::leaf(unit))
                     .explore(explore);
      group = maybe_minimize(std::move(next), count_key,
                             std::string("group ") + tag(c) + " x" + std::to_string(i + 1));
    }
    if (copies == 1 && options.minimize) {
      // Normalize the name of a single-component group to its count form.
      std::vector<std::string> names(group.num_states());
      for (StateId s = 0; s < group.num_states(); ++s) names[s] = count_key(group.state_name(s));
      group = group.rename_states(std::move(names));
    }
    return group;
  };

  const Imc ws_left = build_group(Component::WsLeft, params.n);
  const Imc ws_right = build_group(Component::WsRight, params.n);
  const Imc sw_left = build_group(Component::SwLeft, 1);
  const Imc sw_right = build_group(Component::SwRight, 1);
  const Imc backbone = build_group(Component::Backbone, 1);
  const Imc repair_unit = imc_from_lts(repair_unit_lts(actions));

  // Interleave the five groups, then synchronize with the repair unit on
  // every grab/release action.
  CompositionExpr all = CompositionExpr::leaf(ws_left);
  all = CompositionExpr::interleave(std::move(all), CompositionExpr::leaf(ws_right));
  all = CompositionExpr::interleave(std::move(all), CompositionExpr::leaf(sw_left));
  all = CompositionExpr::interleave(std::move(all), CompositionExpr::leaf(sw_right));
  all = CompositionExpr::interleave(std::move(all), CompositionExpr::leaf(backbone));

  std::unordered_set<Action> sync;
  for (int i = 0; i < kNumComponents; ++i) {
    const std::string t = tag(static_cast<Component>(i));
    sync.insert(actions->intern("g_" + t));
    sync.insert(actions->intern("r_" + t));
  }
  CompositionExpr system =
      CompositionExpr::parallel(std::move(all), std::move(sync), CompositionExpr::leaf(repair_unit));

  // Final exploration under the closed-system urgency assumption.
  ExploreOptions final_explore = explore;
  final_explore.urgent = true;
  result.uimc = system.explore(final_explore);

  StageStats final_stats;
  final_stats.stage = "system";
  final_stats.states = final_stats.states_before_minimization = result.uimc.num_states();
  final_stats.interactive_transitions = result.uimc.num_interactive_transitions();
  final_stats.markov_transitions = result.uimc.num_markov_transitions();
  result.stages.push_back(final_stats);

  const auto rate = result.uimc.uniform_rate(UniformityView::Closed);
  if (!rate) {
    throw UniformityError("ftwc: compositional model is unexpectedly non-uniform");
  }
  result.uniform_rate = *rate;

  result.goal.resize(result.uimc.num_states());
  for (StateId s = 0; s < result.uimc.num_states(); ++s) {
    result.goal[s] = !premium(parse_config(result.uimc.state_name(s), params.n), params.n);
  }
  return result;
}

}  // namespace unicon::ftwc
