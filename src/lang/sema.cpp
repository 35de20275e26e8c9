#include "lang/sema.hpp"

#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "support/numerics.hpp"

namespace unicon::lang {

namespace {

class Checker {
 public:
  explicit Checker(const Model& m) : m_(m) {}

  std::vector<Diagnostic> run() {
    check_declarations();
    for (const ComponentDecl& c : m_.components) check_component(c);
    for (const TimingDecl& t : m_.timings) check_timing(t);
    for (const LetDecl& l : m_.lets) {
      // Scope the let only after its body is checked: lets reference
      // earlier lets, never themselves, which also rules out recursion.
      let_alphabet_[l.name.text] = check_expr(*l.expr);
      lets_in_scope_.insert(l.name.text);
    }
    check_system();
    check_props();
    return std::move(diagnostics_);
  }

 private:
  void error(SourceLoc loc, std::string message) {
    diagnostics_.push_back(
        Diagnostic{Diagnostic::Category::Semantic, loc, std::move(message)});
  }

  // Components, timings, lets and props live in one global namespace so
  // that references in expressions and property formulas are unambiguous.
  void check_declarations() {
    std::unordered_map<std::string, const char*> seen;
    auto declare = [&](const Name& n, const char* kind) {
      const auto [it, inserted] = seen.emplace(n.text, kind);
      if (!inserted) {
        error(n.loc, std::string(kind) + " '" + n.text + "' redeclares a " + it->second +
                         " of the same name");
      }
    };
    for (const ComponentDecl& c : m_.components) declare(c.name, "component");
    for (const TimingDecl& t : m_.timings) declare(t.name, "timing");
    for (const LetDecl& l : m_.lets) declare(l.name, "let");
    for (const PropDecl& p : m_.props) declare(p.name, "prop");
    for (const ComponentDecl& c : m_.components) {
      for (const LabelDecl& l : c.labels) declare(l.name, "label");
    }
  }

  void check_component(const ComponentDecl& c) {
    std::unordered_set<std::string> states;
    for (const Name& s : c.states) {
      if (!states.insert(s.text).second) {
        error(s.loc, "duplicate state '" + s.text + "' in component '" + c.name.text + "'");
      }
    }
    if (states.empty()) {
      error(c.name.loc, "component '" + c.name.text + "' declares no states");
      return;
    }
    auto check_state = [&](const Name& s) {
      if (states.count(s.text) == 0) {
        error(s.loc, "undeclared state '" + s.text + "' in component '" + c.name.text + "'");
      }
    };
    if (!c.has_initial) {
      error(c.name.loc, "component '" + c.name.text + "' has no initial state");
    } else {
      check_state(c.initial);
    }
    for (const LabelDecl& l : c.labels) {
      for (const Name& s : l.states) check_state(s);
    }
    for (const InteractiveDecl& t : c.interactive) {
      check_state(t.from);
      check_state(t.to);
    }

    // Uniformity by construction (Def. 4 / Lemma 2): a component that owns
    // Markov transitions must give *every* state the same exit rate — the
    // same discipline the elapse operator enforces with its self-loops —
    // so any composition of checked components stays uniform.
    std::unordered_map<std::string, double> exit_rate;
    for (const MarkovDecl& t : c.markov) {
      check_state(t.from);
      check_state(t.to);
      if (!(t.rate > 0.0) || !std::isfinite(t.rate)) {
        error(t.rate_loc, "transition rate must be positive and finite");
      } else {
        exit_rate[t.from.text] += t.rate;
      }
    }
    if (!c.markov.empty()) {
      const Name* reference = nullptr;
      double reference_rate = 0.0;
      for (const Name& s : c.states) {
        const auto it = exit_rate.find(s.text);
        const double e = it == exit_rate.end() ? 0.0 : it->second;
        if (reference == nullptr) {
          reference = &s;
          reference_rate = e;
        } else if (!rates_agree(e, reference_rate)) {
          error(c.name.loc, "component '" + c.name.text +
                                "' is not uniform: state '" + s.text + "' has exit rate " +
                                std::to_string(e) + " but state '" + reference->text + "' has " +
                                std::to_string(reference_rate) +
                                " (uniformity-by-construction violation; pad with self-loops "
                                "or use elapse)");
          break;
        }
      }
    }
  }

  void check_timing(const TimingDecl& t) {
    auto positive = [&](double r) { return r > 0.0 && std::isfinite(r); };
    switch (t.kind) {
      case TimingDecl::Kind::Exponential:
      case TimingDecl::Kind::Erlang:
        if (!positive(t.rate)) error(t.params_loc, "distribution rate must be positive");
        break;
      case TimingDecl::Kind::Phases:
        for (double r : t.rates) {
          if (!positive(r)) {
            error(t.params_loc, "phase rates must be positive");
            break;
          }
        }
        break;
    }
  }

  /// Visible alphabet of an expression (actions it can perform or sync
  /// on), used to lint sync/hide sets.  Returns empty set for erroneous
  /// references (already reported).
  std::unordered_set<std::string> check_expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::Ref: {
        if (const ComponentDecl* c = m_.find_component(e.ref.text)) {
          std::unordered_set<std::string> alphabet;
          for (const InteractiveDecl& t : c->interactive) {
            if (t.action.text != "tau") alphabet.insert(t.action.text);
          }
          return alphabet;
        }
        if (m_.find_let(e.ref.text) != nullptr) {
          if (lets_in_scope_.count(e.ref.text) == 0) {
            error(e.ref.loc, "let '" + e.ref.text +
                                 "' is used before its definition (lets may only reference "
                                 "earlier lets)");
            return {};
          }
          return let_alphabet_.at(e.ref.text);
        }
        if (m_.find_timing(e.ref.text) != nullptr) {
          error(e.ref.loc,
                "'" + e.ref.text + "' is a timing, not a component (use elapse(...) to "
                                   "instantiate it)");
        } else {
          error(e.ref.loc, "undeclared component '" + e.ref.text + "'");
        }
        return {};
      }
      case Expr::Kind::Parallel: {
        std::unordered_set<std::string> alphabet = check_expr(*e.left);
        for (const std::string& a : check_expr(*e.right)) alphabet.insert(a);
        for (const Name& a : e.sync) {
          if (a.text == "tau") {
            error(a.loc, "tau cannot appear in a synchronization set");
          } else if (alphabet.count(a.text) == 0) {
            error(a.loc, "synchronization action '" + a.text +
                             "' does not occur in either operand");
          }
        }
        return alphabet;
      }
      case Expr::Kind::Hide: {
        std::unordered_set<std::string> alphabet = check_expr(*e.child);
        for (const Name& a : e.hidden) {
          if (a.text == "tau") {
            error(a.loc, "tau cannot be hidden (it is already internal)");
          } else if (alphabet.count(a.text) == 0) {
            error(a.loc, "hidden action '" + a.text + "' does not occur in the expression");
          } else {
            alphabet.erase(a.text);
          }
        }
        return alphabet;
      }
      case Expr::Kind::Elapse: {
        for (const Name* a : {&e.fire, &e.trigger}) {
          if (a->text == "tau") error(a->loc, "elapse fire/trigger actions must be visible");
        }
        const TimingDecl* t = m_.find_timing(e.timing.text);
        if (t == nullptr) {
          if (m_.find_component(e.timing.text) != nullptr) {
            error(e.timing.loc,
                  "'" + e.timing.text + "' is a component, not a timing");
          } else {
            error(e.timing.loc, "undeclared timing '" + e.timing.text + "'");
          }
        } else if (e.uniform_rate != 0.0 &&
                   e.uniform_rate < t->max_exit_rate() * (1.0 - kUniformityTolerance)) {
          error(e.rate_loc, "elapse uniformization rate " + std::to_string(e.uniform_rate) +
                                " is below the maximal phase exit rate " +
                                std::to_string(t->max_exit_rate()) + " of timing '" +
                                e.timing.text + "' (non-uniform time constraint)");
        }
        if (e.uniform_rate < 0.0 || !std::isfinite(e.uniform_rate)) {
          error(e.rate_loc, "elapse uniformization rate must be positive");
        }
        return {e.fire.text, e.trigger.text};
      }
    }
    return {};
  }

  void check_system() {
    if (m_.systems.empty()) {
      error(SourceLoc{1, 1}, "model declares no 'system' composition");
      return;
    }
    for (std::size_t i = 1; i < m_.systems.size(); ++i) {
      error(m_.systems[i].loc, "duplicate 'system' declaration (a model has exactly one)");
    }
    check_expr(*m_.systems.front().expr);
  }

  void check_props() {
    std::unordered_set<std::string> labels;
    for (const ComponentDecl& c : m_.components) {
      for (const LabelDecl& l : c.labels) labels.insert(l.name.text);
    }
    std::unordered_set<std::string> props_in_scope;
    for (const PropDecl& p : m_.props) {
      check_prop_expr(*p.expr, labels, props_in_scope);
      props_in_scope.insert(p.name.text);
    }
  }

  void check_prop_expr(const PropExpr& e, const std::unordered_set<std::string>& labels,
                       const std::unordered_set<std::string>& props_in_scope) {
    switch (e.kind) {
      case PropExpr::Kind::Atom:
        if (labels.count(e.atom.text) == 0 && props_in_scope.count(e.atom.text) == 0) {
          error(e.atom.loc, "undeclared proposition '" + e.atom.text +
                                "' (labels and earlier props are in scope)");
        }
        break;
      case PropExpr::Kind::Const:
        break;
      case PropExpr::Kind::Not:
        check_prop_expr(*e.a, labels, props_in_scope);
        break;
      case PropExpr::Kind::And:
      case PropExpr::Kind::Or:
        check_prop_expr(*e.a, labels, props_in_scope);
        check_prop_expr(*e.b, labels, props_in_scope);
        break;
    }
  }

  const Model& m_;
  std::vector<Diagnostic> diagnostics_;
  std::unordered_set<std::string> lets_in_scope_;
  std::unordered_map<std::string, std::unordered_set<std::string>> let_alphabet_;
};

}  // namespace

std::vector<Diagnostic> check_model(const Model& m) { return Checker(m).run(); }

}  // namespace unicon::lang
