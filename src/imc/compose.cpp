#include "imc/compose.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace unicon {

namespace {

/// One leaf moving to a local state, and the change that makes to the tuple
/// hash: key(leaf, old state) ^ key(leaf, new state).
struct Update {
  std::uint32_t leaf;
  StateId to;
  std::uint32_t key_delta;
};

/// An interactive move of a subtree: the bit of its action and its updates,
/// the slice [first, first + count) of the explorer's update pool.
struct Move {
  std::uint32_t bit;
  std::uint32_t first;
  std::uint32_t count;
};

/// A slot of the product-state table: a state id and its tuple hash, whose
/// low bits also pick the home slot.  kNoState marks an empty slot.
struct Slot {
  StateId id = kNoState;
  std::uint32_t tag = 0;
};

constexpr std::uint32_t kNoBit = static_cast<std::uint32_t>(-1);

bool has_bit(const std::uint64_t* mask, std::uint32_t bit) {
  return ((mask[bit >> 6] >> (bit & 63)) & 1u) != 0;
}

void set_bit(std::uint64_t* mask, std::uint32_t bit) {
  mask[bit >> 6] |= std::uint64_t{1} << (bit & 63);
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
/// so the id order is the breadth-first frontier.  A successor is written
/// over a copy of the expanded tuple, looked up, appended to the arena only
/// when it is new, and undone again.  A tuple's hash is the xor of one
/// random key per (leaf, local state), so a successor's hash is the expanded
/// state's hash xor the keys of the leaves its move changes.
///
/// Interactive moves are pruned before they are collected.  Every action
/// has a dense bit (tau is bit 0), and every (leaf, local state) a mask of
/// its enabled actions.  Per expanded state each node's *offer*, the actions
/// its subtree can perform, is computed bottom-up; then moves are collected
/// top-down under a *need* mask, the actions an ancestor can still pass on.
/// A subtree that offers nothing needed is skipped, and so is a leaf move
/// whose action is not needed; both are moves that some ancestor would drop,
/// so the surviving moves and their order are those of the unpruned SOS
/// rules.  Moves go to one stack buffer that each parent compacts in place;
/// the buffer and the update pool are reused across states, so a state costs
/// no allocation once they have grown.
class ComposeExplorer {
 public:
  ComposeExplorer(const CompositionExpr& expr, const ExploreOptions& options)
      : expr_(expr), options_(options), width_(expr.leaves_.size()), current_(width_), slots_(64) {
    // Dense action bits: tau, then every action on a leaf transition in id
    // order.  Sync and hidden actions that no leaf performs need no bit.
    std::vector<std::uint8_t> used;
    for (const Imc& leaf : expr.leaves_) {
      for (const LtsTransition& t : leaf.interactive_transitions()) {
        if (t.action >= used.size()) used.resize(static_cast<std::size_t>(t.action) + 1, 0);
        used[t.action] = 1;
      }
    }
    bit_of_.assign(std::max<std::size_t>(used.size(), 1), kNoBit);
    bit_of_[kTau] = 0;
    action_of_bit_.push_back(kTau);
    for (Action a = kTau + 1; a < used.size(); ++a) {
      if (used[a] == 0) continue;
      bit_of_[a] = static_cast<std::uint32_t>(action_of_bit_.size());
      action_of_bit_.push_back(a);
    }
    words_ = (action_of_bit_.size() + 63) / 64;

    // Per (leaf, local state): the enabled actions and a tuple-hash key.
    Rng rng(0x5eed5eedull);
    std::size_t local_states = 0;
    for (const Imc& leaf : expr.leaves_) local_states += leaf.num_states();
    enabled_.assign(local_states * words_, 0);
    keys_.resize(local_states);
    leaf_base_.reserve(width_);
    std::size_t base = 0;
    for (const Imc& leaf : expr.leaves_) {
      leaf_base_.push_back(base);
      for (StateId s = 0; s < leaf.num_states(); ++s) {
        for (const LtsTransition& t : leaf.out_interactive(s)) {
          set_bit(&enabled_[(base + s) * words_], bit_of_[t.action]);
        }
        keys_[base + s] = static_cast<std::uint32_t>(rng.next_u64());
      }
      base += leaf.num_states();
    }

    // Per node: its sync or hidden mask, and its offer and need rows.
    const std::size_t nodes = expr.nodes_.size();
    node_masks_.assign(nodes * words_, 0);
    offers_.assign(nodes * words_, 0);
    needs_.assign(nodes * words_, 0);
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto& node = expr.nodes_[i];
      if (node.kind == CompositionExpr::NodeKind::Leaf) {
        leaf_nodes_.emplace_back(i, node.leaf);
        continue;
      }
      inner_nodes_.push_back(i);
      std::uint64_t* mask = &node_masks_[i * words_];
      if (node.kind == CompositionExpr::NodeKind::Hide && node.hide_everything) {
        for (std::uint32_t b = 1; b < action_of_bit_.size(); ++b) set_bit(mask, b);
        continue;
      }
      const auto& actions =
          node.kind == CompositionExpr::NodeKind::Parallel ? node.sync : node.hidden;
      for (const Action a : actions) {
        if (a != kTau && a < bit_of_.size() && bit_of_[a] != kNoBit) set_bit(mask, bit_of_[a]);
      }
    }
    std::fill_n(&needs_[expr.root_ * words_], words_, ~std::uint64_t{0});
  }

  Imc run() {
    std::optional<Telemetry::Span> span;
    if (options_.telemetry != nullptr) span.emplace(options_.telemetry->span("compose"));

    ImcBuilder builder(expr_.actions_);
    if (options_.record_tuples != nullptr) options_.record_tuples->clear();

    std::uint64_t interactive_added = 0;
    std::uint64_t markov_added = 0;
    std::size_t peak_frontier = 0;

    for (std::size_t leaf = 0; leaf < width_; ++leaf) {
      current_[leaf] = expr_.leaves_[leaf].initial();
    }
    builder.set_initial(intern(builder, tuple_hash(current_.data())));

    for (StateId from = 0; from < num_states_; ++from) {
      if (options_.guard != nullptr) options_.guard->check("compose");
      peak_frontier = std::max<std::size_t>(peak_frontier, num_states_ - from);
      std::copy_n(arena_.begin() + static_cast<std::ptrdiff_t>(from * width_), width_,
                  current_.begin());
      const std::uint32_t hash = tuple_hash(current_.data());

      compute_offers();
      updates_.clear();
      moves_.clear();
      collect(expr_.root_);
      const std::size_t expanded = static_cast<std::size_t>(from) * width_;
      for (const Move& m : moves_) {
        std::uint32_t next_hash = hash;
        for (std::uint32_t u = m.first; u < m.first + m.count; ++u) {
          current_[updates_[u].leaf] = updates_[u].to;
          next_hash ^= updates_[u].key_delta;
        }
        builder.add_interactive(from, action_of_bit_[m.bit], intern(builder, next_hash));
        for (std::uint32_t u = m.first; u < m.first + m.count; ++u) {
          current_[updates_[u].leaf] = arena_[expanded + updates_[u].leaf];
        }
        ++interactive_added;
      }

      if (options_.urgent && !moves_.empty()) continue;

      // Markov moves interleave leaf by leaf, in leaf (left-to-right) order.
      for (std::size_t leaf = 0; leaf < width_; ++leaf) {
        const StateId local = current_[leaf];
        const std::uint32_t* keys = &keys_[leaf_base_[leaf]];
        for (const MarkovTransition& t : expr_.leaves_[leaf].out_markov(local)) {
          current_[leaf] = t.to;
          builder.add_markov(from, t.rate, intern(builder, hash ^ keys[local] ^ keys[t.to]));
          ++markov_added;
        }
        current_[leaf] = local;
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
  /// The xor of the keys of a tuple's (leaf, local state) pairs.
  std::uint32_t tuple_hash(const StateId* tuple) const {
    std::uint32_t h = 0;
    for (std::size_t l = 0; l < width_; ++l) h ^= keys_[leaf_base_[l] + tuple[l]];
    return h;
  }

  /// Returns the id of the tuple in current_, whose hash is @p tag.  A new
  /// tuple is appended to the arena as state num_states_.
  StateId intern(ImcBuilder& builder, std::uint32_t tag) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = tag & mask;
    for (; slots_[i].id != kNoState; i = (i + 1) & mask) {
      if (slots_[i].tag != tag) continue;
      const StateId* known = arena_.data() + static_cast<std::size_t>(slots_[i].id) * width_;
      if (std::equal(current_.begin(), current_.end(), known)) {
        ++dedup_hits_;
        return slots_[i].id;
      }
    }
    if (num_states_ >= options_.max_states) {
      throw ModelError("CompositionExpr::explore: state limit exceeded");
    }
    arena_.insert(arena_.end(), current_.begin(), current_.end());
    const StateId id =
        builder.add_state(options_.record_names ? name_of(current_.data()) : std::string());
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

  const std::uint64_t* node_mask(std::size_t node) const { return &node_masks_[node * words_]; }
  std::uint64_t* offer(std::size_t node) { return &offers_[node * words_]; }
  std::uint64_t* need(std::size_t node) { return &needs_[node * words_]; }

  /// Each node's offer in the current state: a leaf offers its enabled
  /// actions; L |[A]| R offers (L | R) & ~A | L & R & A; hiding H in C
  /// offers C & ~H, plus tau when C & H is not empty.  Inner nodes go in
  /// index order, which puts children before parents.
  void compute_offers() {
    for (const auto& [node, leaf] : leaf_nodes_) {
      const std::uint64_t* enabled = &enabled_[(leaf_base_[leaf] + current_[leaf]) * words_];
      std::uint64_t* out = offer(node);
      for (std::size_t w = 0; w < words_; ++w) out[w] = enabled[w];
    }
    for (const std::size_t i : inner_nodes_) {
      const auto& node = expr_.nodes_[i];
      std::uint64_t* out = offer(i);
      const std::uint64_t* mask = node_mask(i);
      if (node.kind == CompositionExpr::NodeKind::Parallel) {
        const std::uint64_t* l = offer(node.left);
        const std::uint64_t* r = offer(node.right);
        for (std::size_t w = 0; w < words_; ++w) {
          out[w] = ((l[w] | r[w]) & ~mask[w]) | (l[w] & r[w] & mask[w]);
        }
      } else {
        const std::uint64_t* c = offer(node.child);
        std::uint64_t hidden = 0;
        for (std::size_t w = 0; w < words_; ++w) {
          hidden |= c[w] & mask[w];
          out[w] = c[w] & ~mask[w];
        }
        if (hidden != 0) set_bit(out, 0);
      }
    }
  }

  /// Appends to moves_ the interactive moves of a subtree in the current
  /// state whose action is in the subtree's need, in SOS order: a parallel
  /// node lists its left-only moves, then its right-only moves, then the
  /// synchronised pairs (left-major); a hide node renames its child's moves
  /// in place.  A parallel child needs what its parent needs, less the
  /// sync actions its sibling does not offer.  A hidden child needs
  /// need&~H, plus H when tau is needed; tau never synchronises, so every
  /// node needs it, and that is need | H.
  void collect(std::size_t node_idx) {
    const std::uint64_t* wanted = need(node_idx);
    const std::uint64_t* offered = offer(node_idx);
    std::uint64_t live = 0;
    for (std::size_t w = 0; w < words_; ++w) live |= wanted[w] & offered[w];
    if (live == 0) return;

    const auto& node = expr_.nodes_[node_idx];
    switch (node.kind) {
      case CompositionExpr::NodeKind::Leaf: {
        const StateId local = current_[node.leaf];
        const std::uint32_t* keys = &keys_[leaf_base_[node.leaf]];
        for (const LtsTransition& t : expr_.leaves_[node.leaf].out_interactive(local)) {
          const std::uint32_t bit = bit_of_[t.action];
          if (!has_bit(wanted, bit)) continue;
          moves_.push_back(Move{bit, static_cast<std::uint32_t>(updates_.size()), 1});
          updates_.push_back(
              Update{static_cast<std::uint32_t>(node.leaf), t.to, keys[local] ^ keys[t.to]});
        }
        return;
      }
      case CompositionExpr::NodeKind::Parallel: {
        const std::uint64_t* sync = node_mask(node_idx);
        const std::uint64_t* left_offer = offer(node.left);
        const std::uint64_t* right_offer = offer(node.right);
        std::uint64_t* left_need = need(node.left);
        std::uint64_t* right_need = need(node.right);
        std::uint64_t joint = 0;
        for (std::size_t w = 0; w < words_; ++w) {
          left_need[w] = wanted[w] & ~(sync[w] & ~right_offer[w]);
          right_need[w] = wanted[w] & ~(sync[w] & ~left_offer[w]);
          joint |= wanted[w] & sync[w] & left_offer[w] & right_offer[w];
        }
        const std::size_t begin = moves_.size();
        collect(node.left);
        const std::size_t mid = moves_.size();
        collect(node.right);
        // Without a needed joint action neither child collected a move on a
        // sync action, so the left-only and right-only runs are in place.
        if (joint == 0) return;
        const std::size_t end = moves_.size();
        // Synchronised pairs go past the end first, then the three runs
        // move down over the synchronising moves they replace.
        for (std::size_t l = begin; l < mid; ++l) {
          if (!has_bit(sync, moves_[l].bit)) continue;
          for (std::size_t r = mid; r < end; ++r) {
            if (moves_[r].bit != moves_[l].bit) continue;
            const Move left = moves_[l];
            const Move right = moves_[r];
            const auto first = static_cast<std::uint32_t>(updates_.size());
            for (std::uint32_t u = left.first; u < left.first + left.count; ++u) {
              const Update copy = updates_[u];
              updates_.push_back(copy);
            }
            for (std::uint32_t u = right.first; u < right.first + right.count; ++u) {
              const Update copy = updates_[u];
              updates_.push_back(copy);
            }
            moves_.push_back(Move{left.bit, first, left.count + right.count});
          }
        }
        std::size_t out = begin;
        for (std::size_t i = begin; i < end; ++i) {
          if (!has_bit(sync, moves_[i].bit)) moves_[out++] = moves_[i];
        }
        for (std::size_t i = end; i < moves_.size(); ++i) moves_[out++] = moves_[i];
        moves_.resize(out);
        return;
      }
      case CompositionExpr::NodeKind::Hide: {
        const std::uint64_t* hidden = node_mask(node_idx);
        std::uint64_t* child_need = need(node.child);
        for (std::size_t w = 0; w < words_; ++w) child_need[w] = wanted[w] | hidden[w];
        const std::size_t begin = moves_.size();
        collect(node.child);
        for (std::size_t i = begin; i < moves_.size(); ++i) {
          if (has_bit(hidden, moves_[i].bit)) moves_[i].bit = 0;
        }
        return;
      }
    }
  }

  const CompositionExpr& expr_;
  const ExploreOptions& options_;
  const std::size_t width_;                  // leaves per tuple
  std::vector<std::uint32_t> bit_of_;        // action id -> bit, kNoBit when unused
  std::vector<Action> action_of_bit_;        // bit -> action id
  std::size_t words_ = 1;                    // 64-bit words per action mask
  std::vector<std::size_t> leaf_base_;       // per leaf: its first (leaf, local state) index
  std::vector<std::uint64_t> enabled_;       // per (leaf, local state): enabled actions
  std::vector<std::uint32_t> keys_;          // per (leaf, local state): tuple-hash key
  std::vector<std::pair<std::size_t, std::size_t>> leaf_nodes_;  // (node, leaf)
  std::vector<std::size_t> inner_nodes_;     // parallel and hide nodes, in index order
  std::vector<std::uint64_t> node_masks_;    // per node: sync or hidden actions
  std::vector<std::uint64_t> offers_;        // per node: its offer in the current state
  std::vector<std::uint64_t> needs_;         // per node: its need in the current state
  std::vector<Move> moves_;                  // move stack of the current state
  std::vector<Update> updates_;              // update pool of the current state
  std::vector<StateId> current_;             // expanded tuple, or a successor being looked up
  std::vector<StateId> arena_;               // tuples, stride width_
  std::vector<Slot> slots_;                  // open addressing, power-of-two size
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
