#include "dft/lower.hpp"

#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "imc/compose.hpp"
#include "imc/imc.hpp"
#include "support/errors.hpp"
#include "support/telemetry.hpp"

namespace unicon::dft {

namespace {

/// One element's IMC plus the leaf states in which the element counts as
/// failed (used for the "failed" proposition of the top element).
struct Leaf {
  Imc imc;
  std::vector<StateId> failed_states;
};

std::string fail_signal(const Dft& ast, std::uint32_t elem) { return "f." + ast.elements[elem].name; }

Leaf lower_basic_event(const CheckedDft& d, std::uint32_t i,
                       const std::shared_ptr<ActionTable>& actions) {
  const Element& e = d.ast.elements[i];
  ImcBuilder b(actions);
  const Action fail = b.intern(fail_signal(d.ast, i));
  std::vector<Action> kills;
  for (const std::uint32_t g : d.killers[i]) {
    kills.push_back(b.intern("k." + d.ast.elements[g].name + "." + e.name));
  }
  const bool dormant_start = d.spare_child[i];
  const double alpha = d.effective_dorm[i];

  const StateId active = b.add_state("active");
  const StateId failpre = b.add_state("failpre");
  const StateId failed = b.add_state("failed");

  // Active duty: exponential failure at the full rate; a kill forces the
  // failure immediately (the fail signal still travels, so parents see a
  // forced failure exactly like a spontaneous one).
  b.add_markov(active, e.lambda, failpre);
  for (const Action k : kills) b.add_interactive(active, k, failpre);

  // Failure pending: offer the fail signal (urgent in the closed system);
  // the Markov self-loop keeps the exit rate at lambda so uniformity holds
  // by construction in every state.  No activation is accepted here — a
  // spare gate trying to promote this BE must first consume the fail
  // signal (input-enabledness of the gate guarantees that resolves).
  b.add_interactive(failpre, fail, failed);
  for (const Action k : kills) b.add_interactive(failpre, k, failpre);
  b.add_markov(failpre, e.lambda, failpre);

  for (const Action k : kills) b.add_interactive(failed, k, failed);
  b.add_markov(failed, e.lambda, failed);

  if (dormant_start) {
    const Action activate = b.intern("a." + e.name);
    const StateId dormant = b.add_state("dormant");
    // Dormant failure at alpha * lambda; the (1 - alpha) * lambda self-loop
    // pads the exit rate back to lambda (Def. 4 uniformization, leaf-local).
    if (alpha > 0.0) b.add_markov(dormant, alpha * e.lambda, failpre);
    if (alpha < 1.0) b.add_markov(dormant, (1.0 - alpha) * e.lambda, dormant);
    b.add_interactive(dormant, activate, active);
    for (const Action k : kills) b.add_interactive(dormant, k, failpre);
    // Input-enable the (once-only) activation everywhere it is irrelevant.
    b.add_interactive(active, activate, active);
    b.add_interactive(failed, activate, failed);
    b.set_initial(dormant);
  } else {
    b.set_initial(active);
  }
  return Leaf{b.build(), {failpre, failed}};
}

/// VOT(k/n); AND = n-of-n, OR = 1-of-n.  Each child fails at most once, so
/// counting distinct fail signals is counting failed children.
Leaf lower_vot(const CheckedDft& d, std::uint32_t i, std::uint32_t k,
               const std::shared_ptr<ActionTable>& actions) {
  ImcBuilder b(actions);
  const Action fail = b.intern(fail_signal(d.ast, i));
  std::vector<Action> fs;
  for (const std::uint32_t c : d.children[i]) fs.push_back(b.intern(fail_signal(d.ast, c)));

  std::vector<StateId> count(k);
  for (std::uint32_t j = 0; j < k; ++j) count[j] = b.add_state("count" + std::to_string(j));
  const StateId emitpre = b.add_state("emitpre");
  const StateId done = b.add_state("done");

  for (std::uint32_t j = 0; j < k; ++j) {
    const StateId next = j + 1 == k ? emitpre : count[j + 1];
    for (const Action f : fs) b.add_interactive(count[j], f, next);
  }
  b.add_interactive(emitpre, fail, done);
  for (const Action f : fs) b.add_interactive(emitpre, f, emitpre);
  for (const Action f : fs) b.add_interactive(done, f, done);
  b.set_initial(count[0]);
  return Leaf{b.build(), {emitpre, done}};
}

/// Inclusive PAND: fails iff all children fail in left-to-right order.  An
/// out-of-order failure latches the failsafe state.  Interleaving makes
/// "simultaneous" failures an ordering choice of the scheduler, so the
/// sup/inf objectives bound the PAND ambiguity from both sides.
Leaf lower_pand(const CheckedDft& d, std::uint32_t i,
                const std::shared_ptr<ActionTable>& actions) {
  const Element& e = d.ast.elements[i];
  (void)e;
  ImcBuilder b(actions);
  const Action fail = b.intern(fail_signal(d.ast, i));
  std::vector<Action> fs;
  for (const std::uint32_t c : d.children[i]) fs.push_back(b.intern(fail_signal(d.ast, c)));
  const std::size_t n = fs.size();

  std::vector<StateId> prog(n);
  for (std::size_t j = 0; j < n; ++j) prog[j] = b.add_state("prog" + std::to_string(j));
  const StateId emitpre = b.add_state("emitpre");
  const StateId done = b.add_state("done");
  const StateId failsafe = b.add_state("failsafe");

  for (std::size_t j = 0; j < n; ++j) {
    // Children 1..j already failed in order; the next in-order failure
    // advances, any later child failing first disarms the gate.
    b.add_interactive(prog[j], fs[j], j + 1 == n ? emitpre : prog[j + 1]);
    for (std::size_t l = j + 1; l < n; ++l) b.add_interactive(prog[j], fs[l], failsafe);
    for (std::size_t l = 0; l < j; ++l) b.add_interactive(prog[j], fs[l], prog[j]);
  }
  b.add_interactive(emitpre, fail, done);
  for (const Action f : fs) b.add_interactive(emitpre, f, emitpre);
  for (const Action f : fs) b.add_interactive(done, f, done);
  for (const Action f : fs) b.add_interactive(failsafe, f, failsafe);
  b.set_initial(prog[0]);
  return Leaf{b.build(), {emitpre, done}};
}

/// SPARE gate: tracks the current holder, the set of failed children and a
/// pending activation.  States are generated on demand from the packed
/// (mode, index, failed-set) encoding.
Leaf lower_spare(const CheckedDft& d, std::uint32_t i,
                 const std::shared_ptr<ActionTable>& actions) {
  const Element& e = d.ast.elements[i];
  const std::vector<std::uint32_t>& kids = d.children[i];
  const std::size_t m = kids.size();
  if (m > 40) {
    throw ModelError("lower_dft: spare gate '" + e.name + "' has more than 40 children");
  }
  ImcBuilder b(actions);
  const Action fail = b.intern(fail_signal(d.ast, i));
  std::vector<Action> fs(m);
  std::vector<Action> act(m);
  for (std::size_t j = 0; j < m; ++j) fs[j] = b.intern(fail_signal(d.ast, kids[j]));
  for (std::size_t j = 1; j < m; ++j) act[j] = b.intern("a." + d.ast.elements[kids[j]].name);

  enum : std::uint64_t { kNormal = 0, kActivating = 1, kEmitPre = 2, kDone = 3 };
  const auto encode = [](std::uint64_t mode, std::uint64_t idx, std::uint64_t mask) {
    return mode << 56 | idx << 48 | mask;
  };
  std::unordered_map<std::uint64_t, StateId> ids;
  std::deque<std::uint64_t> frontier;
  const auto state = [&](std::uint64_t key) {
    const auto [it, inserted] = ids.emplace(key, StateId{});
    if (inserted) {
      const std::uint64_t mode = key >> 56;
      const std::uint64_t idx = (key >> 48) & 0xff;
      const std::uint64_t mask = key & ((std::uint64_t{1} << 48) - 1);
      std::string name(mode == kNormal      ? "hold"
                       : mode == kActivating ? "act"
                       : mode == kEmitPre    ? "emitpre"
                                             : "done");
      if (mode == kNormal || mode == kActivating) {
        name += std::to_string(idx);
        name += '/';
        name += std::to_string(mask);
      }
      it->second = b.add_state(std::move(name));
      frontier.push_back(key);
    }
    return it->second;
  };
  // Smallest non-failed spare, or the gate's failure when none is left.
  const auto after_failure = [&](std::uint64_t mask) {
    for (std::size_t j = 1; j < m; ++j) {
      if ((mask & (std::uint64_t{1} << j)) == 0) return encode(kActivating, j, mask);
    }
    return encode(kEmitPre, 0, 0);
  };

  const StateId initial = state(encode(kNormal, 0, 0));
  b.set_initial(initial);
  std::vector<StateId> failed_states;
  while (!frontier.empty()) {
    const std::uint64_t key = frontier.front();
    frontier.pop_front();
    const std::uint64_t mode = key >> 56;
    const std::uint64_t idx = (key >> 48) & 0xff;
    const std::uint64_t mask = key & ((std::uint64_t{1} << 48) - 1);
    const StateId from = ids.at(key);
    switch (mode) {
      case kNormal:
        for (std::size_t j = 0; j < m; ++j) {
          const std::uint64_t bit = std::uint64_t{1} << j;
          if (j == idx) {
            b.add_interactive(from, fs[j], state(after_failure(mask | bit)));
          } else if ((mask & bit) == 0) {
            // A dormant (or already-replaced) child fails on the side.
            b.add_interactive(from, fs[j], state(encode(kNormal, idx, mask | bit)));
          } else {
            b.add_interactive(from, fs[j], from);  // input-enabled, cannot recur
          }
        }
        break;
      case kActivating:
        b.add_interactive(from, act[idx], state(encode(kNormal, idx, mask)));
        for (std::size_t j = 0; j < m; ++j) {
          const std::uint64_t bit = std::uint64_t{1} << j;
          if (j == idx) {
            // The candidate itself fails before the activation lands.
            b.add_interactive(from, fs[j], state(after_failure(mask | bit)));
          } else if ((mask & bit) == 0) {
            b.add_interactive(from, fs[j], state(encode(kActivating, idx, mask | bit)));
          } else {
            b.add_interactive(from, fs[j], from);
          }
        }
        break;
      case kEmitPre:
        failed_states.push_back(from);
        b.add_interactive(from, fail, state(encode(kDone, 0, 0)));
        for (std::size_t j = 0; j < m; ++j) b.add_interactive(from, fs[j], from);
        break;
      case kDone:
        failed_states.push_back(from);
        for (std::size_t j = 0; j < m; ++j) b.add_interactive(from, fs[j], from);
        break;
    }
  }
  return Leaf{b.build(), std::move(failed_states)};
}

/// FDEP: once the trigger fires, force the dependents one at a time (in
/// declaration order, but interleaved with everything else — the
/// forwarding order across concurrent signals is scheduler-resolved).
Leaf lower_fdep(const CheckedDft& d, std::uint32_t i,
                const std::shared_ptr<ActionTable>& actions) {
  const Element& e = d.ast.elements[i];
  ImcBuilder b(actions);
  const std::vector<std::uint32_t>& kids = d.children[i];
  const Action trigger = b.intern(fail_signal(d.ast, kids[0]));
  std::vector<Action> kill;
  for (std::size_t j = 1; j < kids.size(); ++j) {
    kill.push_back(b.intern("k." + e.name + "." + d.ast.elements[kids[j]].name));
  }

  const StateId idle = b.add_state("idle");
  std::vector<StateId> killing(kill.size());
  for (std::size_t j = 0; j < kill.size(); ++j) killing[j] = b.add_state("kill" + std::to_string(j));
  const StateId done = b.add_state("done");

  b.add_interactive(idle, trigger, killing.empty() ? done : killing[0]);
  for (std::size_t j = 0; j < kill.size(); ++j) {
    b.add_interactive(killing[j], kill[j], j + 1 == kill.size() ? done : killing[j + 1]);
    b.add_interactive(killing[j], trigger, killing[j]);
  }
  b.add_interactive(done, trigger, done);
  b.set_initial(idle);
  // An fdep never fails itself; it is also never the top element (sema).
  return Leaf{b.build(), {}};
}

Leaf lower_element(const CheckedDft& d, std::uint32_t i,
                   const std::shared_ptr<ActionTable>& actions) {
  const Element& e = d.ast.elements[i];
  switch (e.kind) {
    case ElementKind::BasicEvent: return lower_basic_event(d, i, actions);
    case ElementKind::And:
      return lower_vot(d, i, static_cast<std::uint32_t>(d.children[i].size()), actions);
    case ElementKind::Or: return lower_vot(d, i, 1, actions);
    case ElementKind::Vot: return lower_vot(d, i, e.vot_k, actions);
    case ElementKind::Pand: return lower_pand(d, i, actions);
    case ElementKind::Spare: return lower_spare(d, i, actions);
    case ElementKind::Fdep: return lower_fdep(d, i, actions);
  }
  throw ModelError("lower_dft: unknown element kind");
}

}  // namespace

lang::BuiltModel lower_dft(const CheckedDft& dft, const LowerOptions& options) {
  std::optional<Telemetry::Span> span;
  if (options.telemetry != nullptr) span.emplace(options.telemetry->span("dft_lower"));

  const auto actions = std::make_shared<ActionTable>();
  std::vector<Leaf> leaves;
  leaves.reserve(dft.ast.elements.size());
  for (std::uint32_t i = 0; i < dft.ast.elements.size(); ++i) {
    leaves.push_back(lower_element(dft, i, actions));
  }

  // Left-associated chain with sync sets = alphabet(leaf) intersected with
  // the union of all earlier alphabets: the standard encoding of CSP
  // multiway synchronization, so a fail signal joins every leaf that
  // mentions it.
  std::unordered_set<Action> seen;
  std::optional<CompositionExpr> expr;
  for (Leaf& leaf : leaves) {
    const std::vector<Action> alphabet = leaf.imc.visible_alphabet();
    if (!expr) {
      expr.emplace(CompositionExpr::leaf(std::move(leaf.imc)));
    } else {
      std::unordered_set<Action> sync;
      for (const Action a : alphabet) {
        if (seen.count(a) != 0) sync.insert(a);
      }
      expr.emplace(CompositionExpr::parallel(std::move(*expr), std::move(sync),
                                             CompositionExpr::leaf(std::move(leaf.imc))));
    }
    seen.insert(alphabet.begin(), alphabet.end());
  }
  expr.emplace(CompositionExpr::hide_all(std::move(*expr)));

  std::vector<StateId> tuples;  // flat, stride num_leaves()
  ExploreOptions explore;
  explore.urgent = true;
  explore.record_names = options.record_names;
  explore.max_states = options.max_states;
  explore.record_tuples = &tuples;
  explore.guard = options.guard;
  explore.telemetry = options.telemetry;

  lang::BuiltModel built;
  built.actions = expr->action_table();
  built.num_leaves = expr->num_leaves();
  built.system = expr->explore(explore);

  // Backstop: the construction pads every basic-event state to exit rate
  // lambda and keeps gates interactive, so the closed view must be uniform
  // at E = sum of lambdas.
  const auto uniform = built.system.uniform_rate(UniformityView::Closed);
  if (!uniform) {
    throw UniformityError("lower_dft: composed system violates closed-view uniformity "
                          "(lowering bug — please report)");
  }
  built.uniform_rate = *uniform;

  // The "failed" proposition: the top element's leaf sits in a failed
  // state.  Transferred exactly via the explorer's leaf tuples.
  const Leaf& top = leaves[dft.top];
  // leaves[*].imc was moved into the expression; failed_states survive.
  std::vector<bool> top_failed;
  for (const StateId s : top.failed_states) {
    if (top_failed.size() <= s) top_failed.resize(s + 1, false);
    top_failed[s] = true;
  }
  std::vector<bool> mask(built.system.num_states(), false);
  for (std::size_t cs = 0; cs < built.system.num_states(); ++cs) {
    const StateId leaf_state = tuples[cs * built.num_leaves + dft.top];
    mask[cs] = leaf_state < top_failed.size() && top_failed[leaf_state];
  }
  built.prop_names = {"failed"};
  built.prop_masks = {std::move(mask)};

  if (span) {
    span->metric("elements", static_cast<double>(dft.ast.elements.size()));
    span->metric("basic_events", static_cast<double>(dft.num_basic_events));
    span->metric("product_states", static_cast<double>(built.system.num_states()));
    span->metric("uniform_rate", built.uniform_rate);
  }
  return built;
}

}  // namespace unicon::dft
