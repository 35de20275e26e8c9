#include "lang/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <utility>

#include "core/analysis.hpp"
#include "io/tra.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/sema.hpp"
#include "support/rng.hpp"

namespace unicon::lang {

namespace {

Name nm(std::string text) { return Name{std::move(text), SourceLoc{}}; }

/// @p prefix followed by @p i ("s3").
std::string numbered(std::string prefix, unsigned i) {
  prefix += std::to_string(i);
  return prefix;
}

ExprPtr ref_expr(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::Ref;
  e->ref = nm(std::move(name));
  return e;
}

ExprPtr par_expr(ExprPtr left, std::vector<Name> sync, ExprPtr right) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::Parallel;
  e->interleave = sync.empty();
  e->sync = std::move(sync);
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

ExprPtr hide_expr(std::vector<Name> hidden, ExprPtr child) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::Hide;
  e->hidden = std::move(hidden);
  e->child = std::move(child);
  return e;
}

ExprPtr elapse_expr(std::string fire, std::string trigger, std::string timing, bool running,
                    double uniform_rate) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::Elapse;
  e->fire = nm(std::move(fire));
  e->trigger = nm(std::move(trigger));
  e->timing = nm(std::move(timing));
  e->running = running;
  e->uniform_rate = uniform_rate;
  return e;
}

PropExprPtr atom_prop(std::string name) {
  auto p = std::make_unique<PropExpr>();
  p->kind = PropExpr::Kind::Atom;
  p->atom = nm(std::move(name));
  return p;
}

PropExprPtr unary_prop(PropExpr::Kind kind, PropExprPtr a) {
  auto p = std::make_unique<PropExpr>();
  p->kind = kind;
  p->a = std::move(a);
  return p;
}

PropExprPtr binary_prop(PropExpr::Kind kind, PropExprPtr a, PropExprPtr b) {
  auto p = std::make_unique<PropExpr>();
  p->kind = kind;
  p->a = std::move(a);
  p->b = std::move(b);
  return p;
}

/// A rate drawn from [0.5, 4), rounded so the printed form stays short.
double random_rate(Rng& rng) {
  return 0.5 + static_cast<double>(rng.next_below(28)) * 0.125;
}

/// A random timing with at most 3 phases, named @p name.
TimingDecl random_timing(Rng& rng, std::string name) {
  TimingDecl t;
  t.name = nm(std::move(name));
  switch (rng.next_below(3)) {
    case 0:
      t.kind = TimingDecl::Kind::Exponential;
      t.rate = random_rate(rng);
      break;
    case 1:
      t.kind = TimingDecl::Kind::Erlang;
      t.phases = 1 + static_cast<unsigned>(rng.next_below(3));
      t.rate = random_rate(rng);
      break;
    default:
      t.kind = TimingDecl::Kind::Phases;
      t.rates.resize(1 + rng.next_below(3));
      for (double& r : t.rates) r = random_rate(rng);
      break;
  }
  return t;
}

/// Generates one timed ring: an interactive cycle s0 -a0-> s1 -a1-> ... -> s0
/// in which every action a_j is gated by its own elapse constraint (fire a_j,
/// trigger a_{j-1}); the constraint of the initial action starts running.
/// This is the paper's time-constrained-system template, so the closed
/// component is non-Zeno and uniform by construction.  Consecutive
/// constraints share actions (one's fire is the next one's trigger), so the
/// timers are folded with explicit overlap synchronization — interleaving
/// them would let a fire race past the re-arming trigger.
void add_ring(Model& m, Rng& rng, const std::string& prefix, unsigned len) {
  ComponentDecl c;
  c.name = nm(prefix);
  std::vector<std::string> actions;
  for (unsigned j = 0; j < len; ++j) {
    c.states.push_back(nm(numbered("s", j)));
    actions.push_back(prefix + "_a" + std::to_string(j));
  }
  c.initial = nm("s0");
  c.has_initial = true;
  c.labels.push_back(LabelDecl{nm(prefix + "_start"), {nm("s0")}});
  if (rng.next_below(2) == 0) {
    c.labels.push_back(LabelDecl{nm(prefix + "_run"), {nm("s1")}});
  }
  for (unsigned j = 0; j < len; ++j) {
    c.interactive.push_back(
        InteractiveDecl{nm(actions[j]), nm(numbered("s", j)), nm(numbered("s", (j + 1) % len))});
  }
  m.components.push_back(std::move(c));

  // One constraint per action; fold with synchronization on the overlap of
  // each constraint's {fire, trigger} with the alphabet accumulated so far.
  ExprPtr timers;
  std::vector<std::string> alphabet;
  for (unsigned j = 0; j < len; ++j) {
    const std::string timing_name = prefix + "_t" + std::to_string(j);
    TimingDecl timing = random_timing(rng, timing_name);
    const std::string& fire = actions[j];
    const std::string& trigger = actions[(j + len - 1) % len];
    double uniform_rate = 0.0;
    if (rng.next_below(4) == 0) {
      uniform_rate = timing.max_exit_rate() + static_cast<double>(1 + rng.next_below(8)) * 0.25;
    }
    m.timings.push_back(std::move(timing));
    ExprPtr timer = elapse_expr(fire, trigger, timing_name, /*running=*/j == 0, uniform_rate);
    if (!timers) {
      timers = std::move(timer);
    } else {
      std::vector<Name> overlap;
      for (const std::string& a : {fire, trigger}) {
        if (std::find(alphabet.begin(), alphabet.end(), a) != alphabet.end()) {
          overlap.push_back(nm(a));
        }
      }
      timers = par_expr(std::move(timers), std::move(overlap), std::move(timer));
    }
    for (const std::string& a : {fire, trigger}) {
      if (std::find(alphabet.begin(), alphabet.end(), a) == alphabet.end()) alphabet.push_back(a);
    }
  }
  m.lets.push_back(LetDecl{nm(prefix + "_timers"), std::move(timers)});

  std::vector<Name> sync;
  for (const std::string& a : actions) sync.push_back(nm(a));
  ExprPtr closed = par_expr(ref_expr(prefix), std::move(sync), ref_expr(prefix + "_timers"));
  if (rng.next_below(4) != 0) {
    std::vector<Name> hidden;
    for (const std::string& a : actions) hidden.push_back(nm(a));
    closed = hide_expr(std::move(hidden), std::move(closed));
  }
  m.lets.push_back(LetDecl{nm(prefix + "_sys"), std::move(closed)});
}

/// A two-state uniform CTMC component (equal exit rates, so it passes the
/// per-component uniformity check) that interleaves with the timed rings.
void add_noise(Model& m, Rng& rng) {
  const double rate = random_rate(rng);
  ComponentDecl c;
  c.name = nm("noise");
  c.states = {nm("lo"), nm("hi")};
  c.initial = nm("lo");
  c.has_initial = true;
  c.labels.push_back(LabelDecl{nm("noise_hi"), {nm("hi")}});
  c.markov.push_back(MarkovDecl{rate, SourceLoc{}, nm("lo"), nm("hi")});
  c.markov.push_back(MarkovDecl{rate, SourceLoc{}, nm("hi"), nm("lo")});
  m.components.push_back(std::move(c));
}

PropExprPtr random_goal(Rng& rng, const std::vector<std::string>& labels) {
  PropExprPtr a = atom_prop(labels[rng.next_below(labels.size())]);
  switch (rng.next_below(4)) {
    case 0:
      return a;
    case 1:
      return unary_prop(PropExpr::Kind::Not, std::move(a));
    case 2:
      return binary_prop(PropExpr::Kind::And, std::move(a),
                         atom_prop(labels[rng.next_below(labels.size())]));
    default:
      return binary_prop(PropExpr::Kind::Or, std::move(a),
                         atom_prop(labels[rng.next_below(labels.size())]));
  }
}

}  // namespace

Model random_model(std::uint64_t seed) {
  Rng rng(derive_seed(0x756e69636f6e21ull, seed));
  Model m;
  m.name = "fuzz_" + std::to_string(seed);

  const unsigned num_rings = 1 + static_cast<unsigned>(rng.next_below(2));
  // Two rings multiply their (already product-shaped) state spaces, so keep
  // the rings shorter in that case.
  const unsigned max_len = num_rings == 2 ? 3 : 4;
  for (unsigned i = 0; i < num_rings; ++i) {
    const unsigned len = 2 + static_cast<unsigned>(rng.next_below(max_len - 1));
    add_ring(m, rng, numbered("c", i), len);
  }
  const bool noise = rng.next_below(3) == 0;
  if (noise) add_noise(m, rng);

  ExprPtr system = ref_expr("c0_sys");
  for (unsigned i = 1; i < num_rings; ++i) {
    system = par_expr(std::move(system), {}, ref_expr(numbered("c", i) + "_sys"));
  }
  if (noise) system = par_expr(std::move(system), {}, ref_expr("noise"));
  m.systems.push_back(SystemDecl{std::move(system), SourceLoc{}});

  std::vector<std::string> labels;
  for (const ComponentDecl& c : m.components) {
    for (const LabelDecl& l : c.labels) labels.push_back(l.name.text);
  }
  m.props.push_back(PropDecl{nm("goal"), random_goal(rng, labels)});
  if (rng.next_below(2) == 0) {
    m.props.push_back(PropDecl{nm("excited"),
                               binary_prop(PropExpr::Kind::And, atom_prop("goal"),
                                           unary_prop(PropExpr::Kind::Not, atom_prop(labels[0])))});
  }
  return m;
}

LangFuzzReport run_lang_fuzz(const LangFuzzConfig& config, const LangLogFn& log) {
  LangFuzzReport report;
  const auto fail = [&](std::uint64_t seed, std::string message) {
    if (log) log("lang seed " + std::to_string(seed) + ": FAIL: " + message);
    report.failures.push_back(LangFuzzFailure{seed, std::move(message)});
  };

  for (std::uint64_t i = 0; i < config.num_seeds; ++i) {
    const std::uint64_t seed = config.base_seed + i;
    ++report.seeds_run;
    try {
      const Model m = random_model(seed);
      const std::string text = print_model(m);

      // 1. The printed concrete syntax parses and checks cleanly.
      Model reparsed;
      try {
        reparsed = parse_model(text, "<fuzz>");
      } catch (const LangError& e) {
        fail(seed, std::string("printed model does not parse: ") + e.what() + "\n" + text);
        continue;
      }
      const std::vector<Diagnostic> diags = check_model(reparsed);
      if (!diags.empty()) {
        fail(seed, "printed model does not check: " + diags.front().str("<fuzz>") + "\n" + text);
        continue;
      }
      ++report.checks_run;

      // 2. Printing is idempotent.
      if (print_model(reparsed) != text) {
        fail(seed, "printing is not idempotent\n" + text);
        continue;
      }
      ++report.checks_run;

      // 3. Both ASTs lower to the same state space with identical props.
      BuildOptions build_options;
      build_options.max_states = 200000;
      const BuiltModel original = build_model(m, build_options);
      const BuiltModel rebuilt = build_model(reparsed, build_options);
      if (original.system.num_states() != rebuilt.system.num_states() ||
          original.system.num_interactive_transitions() !=
              rebuilt.system.num_interactive_transitions() ||
          original.system.num_markov_transitions() != rebuilt.system.num_markov_transitions() ||
          original.uniform_rate != rebuilt.uniform_rate) {
        fail(seed, "rebuilt system differs from the original\n" + text);
        continue;
      }
      if (original.prop_names != rebuilt.prop_names || original.prop_masks != rebuilt.prop_masks) {
        fail(seed, "rebuilt propositions differ from the original\n" + text);
        continue;
      }
      ++report.checks_run;

      // 4. Analysis smoke: both builds give the same (sane) probability.
      UimcAnalysisOptions analysis;
      analysis.reachability.epsilon = config.epsilon;
      const double p1 =
          analyze_timed_reachability(original.system, original.mask("goal"), config.time, analysis)
              .value;
      const double p2 =
          analyze_timed_reachability(rebuilt.system, rebuilt.mask("goal"), config.time, analysis)
              .value;
      if (p1 != p2) {
        fail(seed, "analysis values diverge: " + std::to_string(p1) + " vs " + std::to_string(p2));
        continue;
      }
      if (!(p1 >= -1e-9 && p1 <= 1.0 + 1e-9)) {
        fail(seed, "analysis value out of range: " + std::to_string(p1));
        continue;
      }
      ++report.checks_run;

      // 5. The propositions survive a .lab serialization round-trip
      //    (all-false masks are not representable in the format, so they
      //    are excluded from the comparison).
      io::LabelMasks written;
      for (std::size_t p = 0; p < rebuilt.prop_names.size(); ++p) {
        const std::vector<bool>& mask = rebuilt.prop_masks[p];
        if (std::find(mask.begin(), mask.end(), true) != mask.end()) {
          written.emplace_back(rebuilt.prop_names[p], mask);
        }
      }
      std::stringstream lab;
      io::write_labels(lab, written);
      io::LabelMasks reread = io::read_labels(lab, rebuilt.system.num_states());
      std::sort(written.begin(), written.end());
      std::sort(reread.begin(), reread.end());
      if (written != reread) {
        fail(seed, ".lab round-trip changed the propositions");
        continue;
      }
      ++report.checks_run;

      if (log) {
        std::ostringstream line;
        line << "lang seed " << seed << ": ok (" << original.system.num_states() << " states, E="
             << original.uniform_rate << ", p=" << p1 << ")";
        log(line.str());
      }
    } catch (const std::exception& e) {
      fail(seed, std::string("unexpected exception: ") + e.what());
    }
  }
  return report;
}

}  // namespace unicon::lang
