#include "imc/compose.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "support/errors.hpp"
#include "support/telemetry.hpp"

namespace unicon {

namespace {

/// One leaf moving to a local state.
struct Update {
  std::uint32_t leaf;
  StateId to;
};

/// An interactive move of a subtree: its action and its updates, the slice
/// [first, first + count) of the explorer's update pool.
struct Move {
  Action action;
  std::uint32_t first;
  std::uint32_t count;
};

/// A slot of the product-state table: a state id and its tuple hash, whose
/// low bits also pick the home slot.  kNoState marks an empty slot.
struct Slot {
  StateId id = kNoState;
  std::uint32_t tag = 0;
};

std::uint32_t tuple_hash(const StateId* tuple, std::size_t width) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < width; ++i) h = (h ^ tuple[i]) * 0x9e3779b97f4a7c15ull;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

/// Dense membership mask over action ids; ids past its end are absent.
std::vector<std::uint8_t> action_mask(const std::unordered_set<Action>& actions) {
  std::vector<std::uint8_t> mask;
  for (const Action a : actions) {
    if (a >= mask.size()) mask.resize(static_cast<std::size_t>(a) + 1, 0);
    mask[a] = 1;
  }
  return mask;
}

bool in_mask(const std::vector<std::uint8_t>& mask, Action a) {
  return a < mask.size() && mask[a] != 0;
}

}  // namespace

CompositionExpr CompositionExpr::leaf(Imc imc) {
  CompositionExpr e;
  e.actions_ = imc.action_table();
  e.leaves_.push_back(std::move(imc));
  Node n;
  n.kind = NodeKind::Leaf;
  n.leaf = 0;
  e.nodes_.push_back(std::move(n));
  e.root_ = 0;
  return e;
}

CompositionExpr CompositionExpr::combine(CompositionExpr&& a, CompositionExpr&& b, Node&& parent) {
  if (a.actions_ != b.actions_) {
    throw ModelError("CompositionExpr: components must share one ActionTable");
  }
  CompositionExpr e;
  e.actions_ = a.actions_;
  e.leaves_ = std::move(a.leaves_);
  e.nodes_ = std::move(a.nodes_);
  const std::size_t leaf_offset = e.leaves_.size();
  const std::size_t node_offset = e.nodes_.size();
  for (Imc& m : b.leaves_) e.leaves_.push_back(std::move(m));
  for (Node& n : b.nodes_) {
    Node copy = std::move(n);
    if (copy.kind == NodeKind::Leaf) {
      copy.leaf += leaf_offset;
    } else if (copy.kind == NodeKind::Parallel) {
      copy.left += node_offset;
      copy.right += node_offset;
    } else {
      copy.child += node_offset;
    }
    e.nodes_.push_back(std::move(copy));
  }
  parent.left = a.root_;
  parent.right = b.root_ + node_offset;
  e.nodes_.push_back(std::move(parent));
  e.root_ = e.nodes_.size() - 1;
  return e;
}

CompositionExpr CompositionExpr::parallel(CompositionExpr left, std::unordered_set<Action> sync,
                                          CompositionExpr right) {
  if (sync.count(kTau) != 0) {
    throw ModelError("CompositionExpr: tau cannot be in a synchronization set");
  }
  Node n;
  n.kind = NodeKind::Parallel;
  n.sync = std::move(sync);
  return combine(std::move(left), std::move(right), std::move(n));
}

CompositionExpr CompositionExpr::interleave(CompositionExpr left, CompositionExpr right) {
  return parallel(std::move(left), {}, std::move(right));
}

CompositionExpr CompositionExpr::hide(CompositionExpr inner, std::unordered_set<Action> hidden) {
  CompositionExpr e = std::move(inner);
  Node n;
  n.kind = NodeKind::Hide;
  n.child = e.root_;
  n.hidden = std::move(hidden);
  e.nodes_.push_back(std::move(n));
  e.root_ = e.nodes_.size() - 1;
  return e;
}

CompositionExpr CompositionExpr::hide_all(CompositionExpr inner) {
  CompositionExpr e = std::move(inner);
  Node n;
  n.kind = NodeKind::Hide;
  n.child = e.root_;
  n.hide_everything = true;
  e.nodes_.push_back(std::move(n));
  e.root_ = e.nodes_.size() - 1;
  return e;
}

/// Performs the reachable-state exploration of a composition expression.
///
/// Product state i is the slice [i * L, (i + 1) * L) of one flat arena of
/// leaf states (L = number of leaves), found again through an
/// open-addressing table of state ids.  Ids are assigned in discovery order,
/// so the id order is the breadth-first frontier.  A successor is built in
/// place at the arena's end and either kept as the next state or dropped
/// again when the table already holds it.  Interactive moves are collected
/// into per-node buffers whose updates live in one pool; buffers and pool
/// are reused across states, so a state costs no allocation once they have
/// grown.
class ComposeExplorer {
 public:
  ComposeExplorer(const CompositionExpr& expr, const ExploreOptions& options)
      : expr_(expr),
        options_(options),
        width_(expr.leaves_.size()),
        masks_(expr.nodes_.size()),
        moves_(expr.nodes_.size()),
        current_(expr.leaves_.size()),
        slots_(64) {
    for (std::size_t i = 0; i < expr.nodes_.size(); ++i) {
      const auto& node = expr.nodes_[i];
      if (node.kind == CompositionExpr::NodeKind::Parallel) masks_[i] = action_mask(node.sync);
      if (node.kind == CompositionExpr::NodeKind::Hide) masks_[i] = action_mask(node.hidden);
    }
  }

  Imc run() {
    std::optional<Telemetry::Span> span;
    if (options_.telemetry != nullptr) span.emplace(options_.telemetry->span("compose"));

    ImcBuilder builder(expr_.actions_);
    if (options_.record_tuples != nullptr) options_.record_tuples->clear();

    std::uint64_t interactive_added = 0;
    std::uint64_t markov_added = 0;
    std::size_t peak_frontier = 0;

    for (const Imc& leaf : expr_.leaves_) arena_.push_back(leaf.initial());
    builder.set_initial(intern(builder));

    for (StateId from = 0; from < num_states_; ++from) {
      if (options_.guard != nullptr) options_.guard->check("compose");
      peak_frontier = std::max<std::size_t>(peak_frontier, num_states_ - from);
      std::copy_n(arena_.begin() + static_cast<std::ptrdiff_t>(from * width_), width_,
                  current_.begin());

      updates_.clear();
      const std::vector<Move>& imoves = collect_interactive(expr_.root_);
      for (const Move& m : imoves) {
        push_current();
        StateId* next = arena_.data() + arena_.size() - width_;
        for (std::uint32_t u = m.first; u < m.first + m.count; ++u) {
          next[updates_[u].leaf] = updates_[u].to;
        }
        builder.add_interactive(from, m.action, intern(builder));
        ++interactive_added;
      }

      if (options_.urgent && !imoves.empty()) continue;

      // Markov moves interleave leaf by leaf, in leaf (left-to-right) order.
      for (std::size_t leaf = 0; leaf < width_; ++leaf) {
        for (const MarkovTransition& t : expr_.leaves_[leaf].out_markov(current_[leaf])) {
          push_current();
          arena_[arena_.size() - width_ + leaf] = t.to;
          builder.add_markov(from, t.rate, intern(builder));
          ++markov_added;
        }
      }
    }

    if (span) {
      span->metric("leaves", width_);
      span->metric("states", num_states_);
      span->metric("interactive_transitions", interactive_added);
      span->metric("markov_transitions", markov_added);
      span->metric("dedup_hits", dedup_hits_);
      span->metric("peak_frontier", peak_frontier);
      span->metric("arena_bytes",
                   arena_.size() * sizeof(StateId) + slots_.size() * sizeof(Slot));
    }
    if (options_.record_tuples != nullptr) *options_.record_tuples = std::move(arena_);
    return builder.build();
  }

 private:
  /// Appends a copy of the current state's tuple to the arena: the
  /// candidate successor that intern() keeps or drops.
  void push_current() { arena_.insert(arena_.end(), current_.begin(), current_.end()); }

  /// Returns the id of the candidate tuple at the arena's end.  A known
  /// tuple is popped again; a new one stays as state num_states_.
  StateId intern(ImcBuilder& builder) {
    const StateId* candidate = arena_.data() + arena_.size() - width_;
    const std::uint32_t tag = tuple_hash(candidate, width_);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = tag & mask;
    for (; slots_[i].id != kNoState; i = (i + 1) & mask) {
      if (slots_[i].tag != tag) continue;
      const StateId* known = arena_.data() + static_cast<std::size_t>(slots_[i].id) * width_;
      if (std::equal(candidate, candidate + width_, known)) {
        arena_.resize(arena_.size() - width_);
        ++dedup_hits_;
        return slots_[i].id;
      }
    }
    if (num_states_ >= options_.max_states) {
      throw ModelError("CompositionExpr::explore: state limit exceeded");
    }
    const StateId id = builder.add_state(options_.record_names ? name_of(candidate) : std::string());
    slots_[i] = Slot{id, tag};
    if (2 * static_cast<std::size_t>(++num_states_) > slots_.size()) grow();
    return id;
  }

  /// Doubles the slot table (load factor at most 1/2).
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNoState) continue;
      std::size_t i = slot.tag & mask;
      while (slots_[i].id != kNoState) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::string name_of(const StateId* tuple) const {
    std::string name = "(";
    for (std::size_t i = 0; i < width_; ++i) {
      if (i) name += ',';
      const std::string& local = expr_.leaves_[i].state_name(tuple[i]);
      name += local.empty() ? std::to_string(tuple[i]) : local;
    }
    name += ')';
    return name;
  }

  /// The interactive moves of a subtree in the current state, in SOS order:
  /// a parallel node lists its left-only moves, then its right-only moves,
  /// then the synchronised pairs (left-major); a hide node renames its
  /// child's moves in place.
  std::vector<Move>& collect_interactive(std::size_t node_idx) {
    const auto& node = expr_.nodes_[node_idx];
    switch (node.kind) {
      case CompositionExpr::NodeKind::Leaf: {
        std::vector<Move>& out = moves_[node_idx];
        out.clear();
        for (const LtsTransition& t : expr_.leaves_[node.leaf].out_interactive(current_[node.leaf])) {
          out.push_back(Move{t.action, static_cast<std::uint32_t>(updates_.size()), 1});
          updates_.push_back(Update{static_cast<std::uint32_t>(node.leaf), t.to});
        }
        return out;
      }
      case CompositionExpr::NodeKind::Parallel: {
        const std::vector<Move>& left = collect_interactive(node.left);
        const std::vector<Move>& right = collect_interactive(node.right);
        const std::vector<std::uint8_t>& sync = masks_[node_idx];
        std::vector<Move>& out = moves_[node_idx];
        out.clear();
        for (const Move& l : left) {
          if (!in_mask(sync, l.action)) out.push_back(l);
        }
        for (const Move& r : right) {
          if (!in_mask(sync, r.action)) out.push_back(r);
        }
        for (const Move& l : left) {
          if (!in_mask(sync, l.action)) continue;
          for (const Move& r : right) {
            if (r.action != l.action) continue;
            const auto first = static_cast<std::uint32_t>(updates_.size());
            for (std::uint32_t u = l.first; u < l.first + l.count; ++u) {
              const Update copy = updates_[u];
              updates_.push_back(copy);
            }
            for (std::uint32_t u = r.first; u < r.first + r.count; ++u) {
              const Update copy = updates_[u];
              updates_.push_back(copy);
            }
            out.push_back(Move{l.action, first, l.count + r.count});
          }
        }
        return out;
      }
      case CompositionExpr::NodeKind::Hide: {
        std::vector<Move>& inner = collect_interactive(node.child);
        for (Move& m : inner) {
          if (m.action != kTau && (node.hide_everything || in_mask(masks_[node_idx], m.action))) {
            m.action = kTau;
          }
        }
        return inner;
      }
    }
    throw ModelError("CompositionExpr::explore: unreachable node kind");
  }

  const CompositionExpr& expr_;
  const ExploreOptions& options_;
  const std::size_t width_;                       // leaves per tuple
  std::vector<std::vector<std::uint8_t>> masks_;  // per node: sync or hidden set
  std::vector<std::vector<Move>> moves_;          // per node: reused move buffer
  std::vector<Update> updates_;                   // update pool of the current state
  std::vector<StateId> current_;                  // expanded tuple (the arena moves as it grows)
  std::vector<StateId> arena_;                    // tuples, stride width_
  std::vector<Slot> slots_;                       // open addressing, power-of-two size
  StateId num_states_ = 0;
  std::uint64_t dedup_hits_ = 0;
};

Imc CompositionExpr::explore(const ExploreOptions& options) const {
  ComposeExplorer explorer(*this, options);
  return explorer.run();
}

Imc parallel_compose(const Imc& a, const std::unordered_set<Action>& sync, const Imc& b,
                     const ExploreOptions& options) {
  auto expr = CompositionExpr::parallel(CompositionExpr::leaf(a),
                                        std::unordered_set<Action>(sync),
                                        CompositionExpr::leaf(b));
  return expr.explore(options);
}

}  // namespace unicon
