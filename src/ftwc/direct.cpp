#include "ftwc/direct.hpp"

#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

#include "support/errors.hpp"

namespace unicon::ftwc {

namespace {

/// Repair-unit status: idle, repairing component class c, or holding a
/// freshly repaired c while the release handshake is pending.
struct RuStatus {
  enum Kind : std::uint8_t { Idle, Busy, Releasing } kind = Idle;
  Component component = Component::WsLeft;
};

struct SemState {
  Config config;
  RuStatus ru;
};

std::uint64_t encode(const SemState& s) {
  std::uint64_t k = s.config.failed_left;
  k = (k << 16) | s.config.failed_right;
  k = (k << 1) | (s.config.sw_left_up ? 1 : 0);
  k = (k << 1) | (s.config.sw_right_up ? 1 : 0);
  k = (k << 1) | (s.config.backbone_up ? 1 : 0);
  k = (k << 2) | static_cast<std::uint64_t>(s.ru.kind);
  k = (k << 3) | static_cast<std::uint64_t>(s.ru.component);
  return k;
}

bool class_failed(const Config& c, Component comp, unsigned /*n*/) {
  switch (comp) {
    case Component::WsLeft: return c.failed_left > 0;
    case Component::WsRight: return c.failed_right > 0;
    case Component::SwLeft: return !c.sw_left_up;
    case Component::SwRight: return !c.sw_right_up;
    case Component::Backbone: return !c.backbone_up;
  }
  return false;
}

void repair_one(Config& c, Component comp) {
  switch (comp) {
    case Component::WsLeft: --c.failed_left; break;
    case Component::WsRight: --c.failed_right; break;
    case Component::SwLeft: c.sw_left_up = true; break;
    case Component::SwRight: c.sw_right_up = true; break;
    case Component::Backbone: c.backbone_up = true; break;
  }
}

std::string name_of(const SemState& s) {
  std::string name = "(";
  name += std::to_string(s.config.failed_left);
  name += ',';
  name += std::to_string(s.config.failed_right);
  name += ',';
  name += s.config.sw_left_up ? "o," : "d,";
  name += s.config.sw_right_up ? "o," : "d,";
  name += s.config.backbone_up ? "o," : "d,";
  switch (s.ru.kind) {
    case RuStatus::Idle: name += "idle"; break;
    case RuStatus::Busy: name += std::string("busy_") + tag(s.ru.component); break;
    case RuStatus::Releasing: name += std::string("rel_") + tag(s.ru.component); break;
  }
  return name + ")";
}

}  // namespace

DirectResult build_direct(const Parameters& params, bool record_names) {
  const unsigned n = params.n;
  if (n == 0) throw ModelError("ftwc: n must be positive");

  ImcBuilder builder;
  Action grab[kNumComponents];
  Action release[kNumComponents];
  for (int i = 0; i < kNumComponents; ++i) {
    const std::string t = tag(static_cast<Component>(i));
    grab[i] = builder.intern("g_" + t);
    release[i] = builder.intern("r_" + t);
  }

  DirectResult result;
  std::unordered_map<std::uint64_t, StateId> ids;
  std::deque<SemState> frontier;

  auto intern_state = [&](const SemState& s) -> StateId {
    const std::uint64_t key = encode(s);
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    const StateId id = builder.add_state(record_names ? name_of(s) : std::string());
    ids.emplace(key, id);
    result.configs.push_back(s.config);
    result.goal.push_back(!premium(s.config, n));
    frontier.push_back(s);
    return id;
  };

  const SemState initial{};  // everything up, repair unit idle
  builder.set_initial(intern_state(initial));

  while (!frontier.empty()) {
    const SemState s = frontier.front();
    frontier.pop_front();
    const StateId from = ids.at(encode(s));

    // --- Interactive states (urgency: no Markov transitions) ------------
    if (s.ru.kind == RuStatus::Releasing) {
      SemState next = s;
      next.ru = RuStatus{RuStatus::Idle, Component::WsLeft};
      builder.add_interactive(from, release[static_cast<int>(s.ru.component)],
                              intern_state(next));
      continue;
    }
    bool any_failed = false;
    for (int i = 0; i < kNumComponents; ++i) {
      any_failed = any_failed || class_failed(s.config, static_cast<Component>(i), n);
    }
    if (s.ru.kind == RuStatus::Idle && any_failed) {
      // The nondeterministic repair-unit assignment.
      for (int i = 0; i < kNumComponents; ++i) {
        const auto c = static_cast<Component>(i);
        if (!class_failed(s.config, c, n)) continue;
        SemState next = s;
        next.ru = RuStatus{RuStatus::Busy, c};
        builder.add_interactive(from, grab[i], intern_state(next));
      }
      continue;
    }

    // --- Markov states ---------------------------------------------------
    // Failures of operational components.
    if (s.config.failed_left < n) {
      SemState next = s;
      ++next.config.failed_left;
      builder.add_markov(from, (n - s.config.failed_left) * params.ws_fail, intern_state(next));
    }
    if (s.config.failed_right < n) {
      SemState next = s;
      ++next.config.failed_right;
      builder.add_markov(from, (n - s.config.failed_right) * params.ws_fail, intern_state(next));
    }
    if (s.config.sw_left_up) {
      SemState next = s;
      next.config.sw_left_up = false;
      builder.add_markov(from, params.sw_fail, intern_state(next));
    }
    if (s.config.sw_right_up) {
      SemState next = s;
      next.config.sw_right_up = false;
      builder.add_markov(from, params.sw_fail, intern_state(next));
    }
    if (s.config.backbone_up) {
      SemState next = s;
      next.config.backbone_up = false;
      builder.add_markov(from, params.bb_fail, intern_state(next));
    }
    // Repair completion.
    if (s.ru.kind == RuStatus::Busy) {
      SemState next = s;
      repair_one(next.config, s.ru.component);
      next.ru = params.with_release ? RuStatus{RuStatus::Releasing, s.ru.component}
                                    : RuStatus{RuStatus::Idle, Component::WsLeft};
      builder.add_markov(from, params.repair_rate(s.ru.component), intern_state(next));
    }
  }

  Imc uniform = builder.build().uniformize(0.0, UniformityView::Closed);
  const auto rate = uniform.uniform_rate(UniformityView::Closed);
  if (!rate) throw UniformityError("ftwc: uniformization failed unexpectedly");
  result.uniform_rate = *rate;
  result.uimc = std::move(uniform);
  return result;
}

}  // namespace unicon::ftwc
