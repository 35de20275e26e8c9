#include "lang/build.hpp"

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "bisim/bisimulation.hpp"
#include "imc/compose.hpp"
#include "imc/elapse.hpp"
#include "support/errors.hpp"
#include "support/telemetry.hpp"

namespace unicon::lang {

namespace {

/// Per-leaf proposition table: for each local state, the indices (into the
/// global label list) of the labels it carries.  Elapse leaves carry none.
using LeafLabels = std::vector<std::vector<std::uint32_t>>;

class Lowering {
 public:
  Lowering(const Model& m, const BuildOptions& options)
      : m_(m), options_(options), actions_(std::make_shared<ActionTable>()) {}

  BuiltModel run() {
    std::optional<Telemetry::Span> span;
    if (options_.telemetry != nullptr) span.emplace(options_.telemetry->span("build"));

    // Global label index in declaration order across components.
    for (const ComponentDecl& c : m_.components) {
      for (const LabelDecl& l : c.labels) {
        label_index_.emplace(l.name.text, static_cast<std::uint32_t>(label_names_.size()));
        label_names_.push_back(l.name.text);
      }
    }

    CompositionExpr expr = lower_expr(*m_.systems.front().expr);

    ExploreOptions explore;
    explore.urgent = options_.urgent;
    explore.record_names = options_.record_names;
    explore.max_states = options_.max_states;
    explore.guard = options_.guard;
    explore.telemetry = options_.telemetry;
    std::vector<StateId> tuples;  // flat, stride num_leaves()
    explore.record_tuples = &tuples;

    BuiltModel built;
    built.system = expr.explore(explore);
    built.actions = actions_;
    built.num_leaves = expr.num_leaves();

    const auto rate = built.system.uniform_rate(UniformityView::Closed);
    if (!rate) {
      throw UniformityError(
          "build_model: explored system is not uniform (closed view); this "
          "indicates a constraint the semantic checker could not see");
    }
    built.uniform_rate = *rate;

    // Transfer atomic propositions: composite state s carries label L iff
    // some leaf's local state carries L.
    const std::size_t n = built.system.num_states();
    const std::size_t width = built.num_leaves;
    std::vector<std::vector<bool>> masks(label_names_.size(), std::vector<bool>(n, false));
    for (StateId s = 0; s < n; ++s) {
      const StateId* tuple = tuples.data() + static_cast<std::size_t>(s) * width;
      for (std::size_t leaf = 0; leaf < width; ++leaf) {
        for (const std::uint32_t label : leaf_labels_[leaf][tuple[leaf]]) {
          masks[label][s] = true;
        }
      }
    }
    built.prop_names = label_names_;
    built.prop_masks = std::move(masks);

    // Derived props, in declaration order (earlier props are in scope).
    for (const PropDecl& p : m_.props) {
      std::vector<bool> mask = eval_prop(*p.expr, built, n);
      built.prop_names.push_back(p.name.text);
      built.prop_masks.push_back(std::move(mask));
    }
    if (span) {
      span->metric("states", n);
      span->metric("leaves", built.num_leaves);
      span->metric("uniform_rate", built.uniform_rate);
      span->metric("labels", label_names_.size());
      span->metric("props", built.prop_names.size());
    }
    return built;
  }

 private:
  // --- leaves -------------------------------------------------------------

  /// Builds (once) and returns the IMC of a component declaration.
  const Imc& component_imc(const ComponentDecl& c) {
    const auto it = component_cache_.find(c.name.text);
    if (it != component_cache_.end()) return it->second;

    ImcBuilder b(actions_);
    std::unordered_map<std::string, StateId> ids;
    for (const Name& s : c.states) ids.emplace(s.text, b.add_state(s.text));
    b.set_initial(ids.at(c.initial.text));
    for (const InteractiveDecl& t : c.interactive) {
      b.add_interactive(ids.at(t.from.text), actions_->intern(t.action.text), ids.at(t.to.text));
    }
    for (const MarkovDecl& t : c.markov) {
      b.add_markov(ids.at(t.from.text), t.rate, ids.at(t.to.text));
    }

    LeafLabels labels(c.states.size());
    for (const LabelDecl& l : c.labels) {
      const std::uint32_t index = label_index_.at(l.name.text);
      for (const Name& s : l.states) labels[ids.at(s.text)].push_back(index);
    }
    component_labels_.emplace(c.name.text, std::move(labels));
    return component_cache_.emplace(c.name.text, b.build()).first->second;
  }

  /// Lowers an expression; appends one entry to leaf_labels_ per leaf, in
  /// the same left-to-right order CompositionExpr stores its leaves.
  CompositionExpr lower_expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::Ref: {
        if (const ComponentDecl* c = m_.find_component(e.ref.text)) {
          const Imc& imc = component_imc(*c);
          leaf_labels_.push_back(component_labels_.at(c->name.text));
          return CompositionExpr::leaf(imc);
        }
        // Sema guarantees this is an in-scope let.
        return lower_expr(*m_.find_let(e.ref.text)->expr);
      }
      case Expr::Kind::Parallel: {
        CompositionExpr left = lower_expr(*e.left);
        std::unordered_set<Action> sync;
        for (const Name& a : e.sync) sync.insert(actions_->intern(a.text));
        CompositionExpr right = lower_expr(*e.right);
        return CompositionExpr::parallel(std::move(left), std::move(sync), std::move(right));
      }
      case Expr::Kind::Hide: {
        CompositionExpr child = lower_expr(*e.child);
        std::unordered_set<Action> hidden;
        for (const Name& a : e.hidden) hidden.insert(actions_->intern(a.text));
        return CompositionExpr::hide(std::move(child), std::move(hidden));
      }
      case Expr::Kind::Elapse: {
        const TimingDecl* t = m_.find_timing(e.timing.text);
        ElapseOptions opts;
        opts.initially_running = e.running;
        opts.uniform_rate = e.uniform_rate;
        Imc constraint =
            elapse(timing_phase_type(*t), e.fire.text, e.trigger.text, actions_, opts);
        leaf_labels_.emplace_back(constraint.num_states());  // no labels
        return CompositionExpr::leaf(std::move(constraint));
      }
    }
    throw ModelError("build_model: unreachable expression kind");
  }

  // --- props --------------------------------------------------------------

  std::vector<bool> eval_prop(const PropExpr& e, const BuiltModel& built, std::size_t n) const {
    switch (e.kind) {
      case PropExpr::Kind::Atom:
        return built.mask(e.atom.text);
      case PropExpr::Kind::Const:
        return std::vector<bool>(n, e.value);
      case PropExpr::Kind::Not: {
        std::vector<bool> a = eval_prop(*e.a, built, n);
        a.flip();
        return a;
      }
      case PropExpr::Kind::And:
      case PropExpr::Kind::Or: {
        std::vector<bool> a = eval_prop(*e.a, built, n);
        const std::vector<bool> b = eval_prop(*e.b, built, n);
        for (std::size_t s = 0; s < n; ++s) {
          a[s] = e.kind == PropExpr::Kind::And ? (a[s] && b[s]) : (a[s] || b[s]);
        }
        return a;
      }
    }
    throw ModelError("build_model: unreachable property kind");
  }

  const Model& m_;
  const BuildOptions& options_;
  std::shared_ptr<ActionTable> actions_;
  std::vector<std::string> label_names_;
  std::unordered_map<std::string, std::uint32_t> label_index_;
  std::unordered_map<std::string, Imc> component_cache_;
  std::unordered_map<std::string, LeafLabels> component_labels_;
  std::vector<LeafLabels> leaf_labels_;  // per composition leaf, in order
};

}  // namespace

BuiltModel minimize_model(const BuiltModel& built, RunGuard* guard, Telemetry* telemetry) {
  const std::size_t n = built.system.num_states();
  std::optional<Telemetry::Span> span;
  if (telemetry != nullptr) span.emplace(telemetry->span("minimize"));

  // Initial label classes = proposition signatures, so the bisimulation
  // never merges states that disagree on any label or prop.  The classes
  // are refined one mask at a time: (class so far, bit) pairs are numbered
  // by first occurrence, which numbers the full bit strings by first
  // occurrence too.
  std::vector<std::uint32_t> labels(n, 0);
  std::uint32_t num_classes = n == 0 ? 0 : 1;
  std::vector<std::uint32_t> renumber;
  for (const std::vector<bool>& mask : built.prop_masks) {
    renumber.assign(2 * static_cast<std::size_t>(num_classes), kNoState);
    num_classes = 0;
    for (StateId s = 0; s < n; ++s) {
      std::uint32_t& id = renumber[2 * static_cast<std::size_t>(labels[s]) + (mask[s] ? 1 : 0)];
      if (id == kNoState) id = num_classes++;
      labels[s] = id;
    }
  }

  const Partition partition = branching_bisimulation(built.system, &labels, guard, telemetry);

  BuiltModel out;
  out.system = quotient(built.system, partition);
  out.actions = built.actions;
  out.num_leaves = built.num_leaves;
  out.uniform_rate =
      out.system.uniform_rate(UniformityView::Closed).value_or(built.uniform_rate);
  out.prop_names = built.prop_names;
  out.prop_masks.assign(built.prop_masks.size(),
                        std::vector<bool>(partition.num_blocks, false));
  for (StateId s = 0; s < n; ++s) {
    for (std::size_t p = 0; p < built.prop_masks.size(); ++p) {
      if (built.prop_masks[p][s]) out.prop_masks[p][partition.block_of[s]] = true;
    }
  }
  if (span) {
    span->metric("input_states", n);
    span->metric("output_states", partition.num_blocks);
    span->metric("prop_classes", num_classes);
  }
  return out;
}

PhaseType timing_phase_type(const TimingDecl& t) {
  switch (t.kind) {
    case TimingDecl::Kind::Exponential:
      return PhaseType::exponential(t.rate);
    case TimingDecl::Kind::Erlang:
      return PhaseType::erlang(t.phases, t.rate);
    case TimingDecl::Kind::Phases:
      return PhaseType::hypoexponential(t.rates);
  }
  throw ModelError("timing_phase_type: unreachable timing kind");
}

const std::vector<bool>& BuiltModel::mask(const std::string& name) const {
  for (std::size_t i = 0; i < prop_names.size(); ++i) {
    if (prop_names[i] == name) return prop_masks[i];
  }
  throw ModelError("model has no proposition named '" + name + "'");
}

bool BuiltModel::has_prop(const std::string& name) const {
  for (const std::string& n : prop_names) {
    if (n == name) return true;
  }
  return false;
}

BuiltModel build_model(const Model& m, const BuildOptions& options) {
  if (m.systems.empty()) {
    throw ModelError("build_model: model has no system declaration (run check_model first)");
  }
  return Lowering(m, options).run();
}

}  // namespace unicon::lang
