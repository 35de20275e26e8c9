#include "bisim/bisimulation.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>

#include "support/errors.hpp"
#include "support/bit_vector.hpp"
#include "support/telemetry.hpp"

namespace unicon {

namespace {

/// Significant bits a rate keeps in a signature.  The comparison is
/// relative: two block rate sums compare equal when they round to the same
/// 40-bit mantissa, so sums that differ only by summation order lump, two
/// rates 1e-10 and 4e-10 stay apart, and scaling every rate by a power of
/// two never changes the partition.
constexpr int kSignatureBits = 40;

/// A positive rate rounded to kSignatureBits significant bits.  Positive
/// finite doubles order like their IEEE bit patterns, so integer rounding
/// of the pattern rounds the mantissa to nearest and carries into the
/// exponent.
std::uint64_t quantize(double rate) {
  constexpr int kDropped = 53 - kSignatureBits;
  return (std::bit_cast<std::uint64_t>(rate) + (1ull << (kDropped - 1))) >> kDropped;
}

constexpr std::uint64_t kInteractiveTag = 1ull << 62;
constexpr std::uint64_t kRateTag = 1ull << 63;

/// One signature item: (kInteractiveTag | action, target block) or
/// (kRateTag | block, quantized rate).
struct SigItem {
  std::uint64_t a, b;
  friend bool operator<(const SigItem& x, const SigItem& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  }
  friend bool operator==(const SigItem&, const SigItem&) = default;
};

/// One round's signatures: every state's sorted, deduplicated items are a
/// range of one pool.  States may share a range (the members of a cyclic
/// inert SCC do).
class SignaturePool {
 public:
  explicit SignaturePool(std::size_t n) : first_(n), last_(n) {}

  void clear() { items_.clear(); }
  std::size_t size() const { return items_.size(); }
  std::size_t bytes() const { return items_.size() * sizeof(SigItem); }

  void push(std::uint64_t a, std::uint64_t b) { items_.push_back(SigItem{a, b}); }
  void push_rates(RateLumper& lumper, const Imc& m, StateId s,
                  const std::vector<std::uint32_t>& blocks) {
    lumper.lump(m, s, blocks, [&](std::uint32_t blk, double rate) {
      push(kRateTag | blk, quantize(rate));
    });
  }
  /// Appends a copy of @p t's finished signature.
  void push_signature_of(StateId t) {
    const std::size_t at = items_.size();
    items_.resize(at + (last_[t] - first_[t]));
    std::copy(items_.begin() + static_cast<std::ptrdiff_t>(first_[t]),
              items_.begin() + static_cast<std::ptrdiff_t>(last_[t]),
              items_.begin() + static_cast<std::ptrdiff_t>(at));
  }
  /// Sorts and dedupes the items from @p from to the end and makes them
  /// the signature of @p s.
  void close(StateId s, std::size_t from) {
    const auto begin = items_.begin() + static_cast<std::ptrdiff_t>(from);
    if (items_.end() - begin <= 16) {
      // Most signatures are a handful of items: insertion sort them.
      for (auto i = begin + 1; i < items_.end(); ++i) {
        const SigItem item = *i;
        auto j = i;
        for (; j > begin && item < *(j - 1); --j) *j = *(j - 1);
        *j = item;
      }
    } else {
      std::sort(begin, items_.end());
    }
    items_.erase(std::unique(begin, items_.end()), items_.end());
    first_[s] = from;
    last_[s] = items_.size();
  }
  /// Makes @p s share @p t's signature.
  void share(StateId s, StateId t) {
    first_[s] = first_[t];
    last_[s] = last_[t];
  }

  bool equal(StateId s, StateId t) const {
    return std::equal(items_.begin() + static_cast<std::ptrdiff_t>(first_[s]),
                      items_.begin() + static_cast<std::ptrdiff_t>(last_[s]),
                      items_.begin() + static_cast<std::ptrdiff_t>(first_[t]),
                      items_.begin() + static_cast<std::ptrdiff_t>(last_[t]));
  }
  std::uint64_t hash(StateId s, std::uint64_t seed) const {
    std::uint64_t h = seed;
    for (std::size_t i = first_[s]; i < last_[s]; ++i) {
      h = (h ^ items_[i].a) * 0x9e3779b97f4a7c15ull;
      h = (h ^ items_[i].b) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 32;
    }
    return h;
  }

 private:
  std::vector<SigItem> items_;
  std::vector<std::size_t> first_, last_;  // per state: its range of items_
};

/// Splits every block by signature: two states share a new block iff they
/// share their old block and their signature.  New blocks are numbered in
/// order of their first state, through an open-addressing table of
/// representative states.
class BlockSplitter {
 public:
  explicit BlockSplitter(std::size_t n) {
    std::size_t capacity = 16;
    while (capacity < 2 * n) capacity *= 2;
    slots_.resize(capacity);
  }

  /// Fills @p next with the new block of every state; returns their count.
  std::uint32_t split(const std::vector<std::uint32_t>& blocks, const SignaturePool& sigs,
                      std::vector<std::uint32_t>& next) {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    std::uint32_t count = 0;
    for (StateId s = 0; s < blocks.size(); ++s) {
      const StateId rep = find_or_insert(s, s, blocks, sigs, mask);
      next[s] = rep == s ? count++ : next[rep];
    }
    return count;
  }

  /// Splits by signature only the states in @p touched (each listed once,
  /// each signature differing from that of every untouched member of its
  /// block).  The touched members of a block that share a signature form a
  /// group; its untouched members are its rest.  The largest part of a
  /// block (the rest on ties, else the first group) keeps the block's id
  /// and every other part gets a new one, so that only the smaller parts
  /// move.  Updates @p blocks and the per-block @p sizes (one entry per
  /// block) and appends every state given a new id to @p moved.
  void split_touched(const std::vector<StateId>& touched, std::vector<std::uint32_t>& blocks,
                     std::vector<std::uint32_t>& sizes, const SignaturePool& sigs,
                     std::vector<StateId>& moved) {
    std::size_t capacity = 16;
    while (capacity < 2 * touched.size()) capacity *= 2;
    slots_.assign(capacity, kEmpty);
    group_of_.resize(touched.size());
    groups_.clear();
    for (std::size_t i = 0; i < touched.size(); ++i) {
      const auto at = static_cast<StateId>(i);
      const StateId rep = find_or_insert(touched[i], at, blocks, sigs, capacity - 1, &touched);
      if (rep == at) {
        group_of_[i] = static_cast<std::uint32_t>(groups_.size());
        groups_.push_back(Group{blocks[touched[i]], 0, 0});
      } else {
        group_of_[i] = group_of_[rep];
      }
      ++groups_[group_of_[i]].size;
    }

    // Per split block: the part that keeps its id, and the id its rest
    // moves to when a group keeps it.
    const auto old_blocks = static_cast<std::uint32_t>(sizes.size());
    parts_.resize(old_blocks);
    for (const StateId s : touched) ++parts_[blocks[s]].touched;
    for (const Group& g : groups_) {
      parts_[g.block].largest = sizes[g.block] - parts_[g.block].touched;  // the rest
    }
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      Part& part = parts_[groups_[g].block];
      if (groups_[g].size > part.largest) {
        part.keeper = g;
        part.largest = groups_[g].size;
      }
    }
    std::uint32_t num_blocks = old_blocks;
    bool evicting = false;
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      const std::uint32_t old = groups_[g].block;
      Part& part = parts_[old];
      groups_[g].id = part.keeper == g ? old : num_blocks++;
      if (part.keeper == g && part.touched < sizes[old]) {
        part.rest_id = num_blocks++;
        evicting = true;
      }
    }
    sizes.resize(num_blocks, 0);
    const auto move = [&](StateId s, std::uint32_t id) {
      --sizes[blocks[s]];
      ++sizes[id];
      blocks[s] = id;
      moved.push_back(s);
    };
    if (evicting) {
      // The rests of blocks a group kept: every untouched member moves.
      marked_.resize(blocks.size(), 0);
      for (const StateId s : touched) marked_[s] = 1;
      for (StateId s = 0; s < blocks.size(); ++s) {
        if (!marked_[s] && parts_[blocks[s]].rest_id != kNoGroup) {
          move(s, parts_[blocks[s]].rest_id);
        }
      }
      for (const StateId s : touched) marked_[s] = 0;
    }
    for (std::size_t i = 0; i < touched.size(); ++i) {
      const std::uint32_t id = groups_[group_of_[i]].id;
      if (id != blocks[touched[i]]) move(touched[i], id);
    }
    for (const Group& g : groups_) parts_[g.block] = Part{};
  }

 private:
  /// The representative key of @p s's (block, signature) class, inserting
  /// @p key when the class is new.  Keys are states, or positions in
  /// @p keys when given.
  StateId find_or_insert(StateId s, StateId key, const std::vector<std::uint32_t>& blocks,
                         const SignaturePool& sigs, std::size_t mask,
                         const std::vector<StateId>* keys = nullptr) {
    const std::uint64_t h = sigs.hash(s, blocks[s] * 0xff51afd7ed558ccdull);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint64_t slot = slots_[i];
      if (slot == kEmpty) {
        slots_[i] = static_cast<std::uint64_t>(tag) << 32 | key;
        return key;
      }
      const auto rep_key = static_cast<StateId>(slot);
      const StateId rep = keys == nullptr ? rep_key : (*keys)[rep_key];
      if (slot >> 32 == tag && blocks[rep] == blocks[s] && sigs.equal(rep, s)) return rep_key;
    }
  }

  static constexpr std::uint64_t kEmpty = ~0ull;
  static constexpr std::uint32_t kNoGroup = static_cast<std::uint32_t>(-1);
  /// A set of touched states that share a block and a signature.
  struct Group {
    std::uint32_t block, size, id;
  };
  /// Per block being split: its touched members, and its largest part.
  struct Part {
    std::uint32_t touched = 0;
    std::uint32_t largest = 0;         ///< size of the keeper (the rest while kNoGroup)
    std::uint32_t keeper = kNoGroup;   ///< group that keeps the id; kNoGroup = the rest
    std::uint32_t rest_id = kNoGroup;  ///< new id of the rest when a group keeps the id
  };
  std::vector<std::uint64_t> slots_;  // tag << 32 | representative key
  std::vector<std::uint32_t> group_of_;
  std::vector<Group> groups_;
  std::vector<Part> parts_;
  std::vector<std::uint8_t> marked_;
};

/// Tau-SCCs of the inert subgraph: tau edges whose ends share a block,
/// read straight off the tau prefix of each state's interactive row.
/// Iterative Tarjan; SCCs are emitted successors-first (reverse
/// topological order of the condensation), which is exactly the order the
/// inert closure needs.
class InertSccs {
 public:
  explicit InertSccs(std::size_t n) : scc_of(n), index_(n), low_(n), on_stack_(n) {}

  std::vector<std::uint32_t> scc_of;
  std::vector<StateId> members;      // states grouped by SCC, in emission order
  std::vector<std::size_t> scc_end;  // SCC k is members[scc_end[k-1], scc_end[k])

  void run(const Imc& m, const std::vector<std::uint32_t>& blocks) {
    const std::size_t n = m.num_states();
    std::fill(index_.begin(), index_.end(), kUnvisited);
    members.clear();
    scc_end.clear();
    std::uint32_t next_index = 0;

    for (StateId root = 0; root < n; ++root) {
      if (index_[root] != kUnvisited) continue;
      visit(root, next_index);
      while (!call_.empty()) {
        Frame& f = call_.back();
        const StateId s = f.s;
        const auto out = m.out_interactive(s);
        if (f.edge < out.size() && out[f.edge].action == kTau) {
          const StateId t = out[f.edge++].to;
          if (blocks[t] != blocks[s]) continue;
          if (index_[t] == kUnvisited) {
            visit(t, next_index);
          } else if (on_stack_[t]) {
            low_[s] = std::min(low_[s], index_[t]);
          }
          continue;
        }
        // All edges of s explored: maybe close an SCC, then return.
        if (low_[s] == index_[s]) {
          const auto scc = static_cast<std::uint32_t>(scc_end.size());
          for (;;) {
            const StateId w = stack_.back();
            stack_.pop_back();
            on_stack_[w] = false;
            scc_of[w] = scc;
            members.push_back(w);
            if (w == s) break;
          }
          scc_end.push_back(members.size());
        }
        call_.pop_back();
        if (!call_.empty()) low_[call_.back().s] = std::min(low_[call_.back().s], low_[s]);
      }
    }
  }

 private:
  static constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
  struct Frame {
    StateId s;
    std::size_t edge = 0;
  };

  void visit(StateId s, std::uint32_t& next_index) {
    index_[s] = low_[s] = next_index++;
    stack_.push_back(s);
    on_stack_[s] = true;
    call_.push_back(Frame{s});
  }

  std::vector<std::uint32_t> index_, low_;
  BitVector on_stack_;
  std::vector<StateId> stack_;
  std::vector<Frame> call_;
};

/// Initial partition: trivial, or the label classes when labels are given.
Partition seed_partition(std::size_t n, const std::vector<std::uint32_t>* labels) {
  if (labels == nullptr) return Partition::trivial(n);
  if (labels->size() != n) throw ModelError("bisimulation: label vector size mismatch");
  Partition p;
  p.block_of = *labels;
  p.num_blocks = 0;
  for (std::uint32_t b : p.block_of) p.num_blocks = std::max(p.num_blocks, b + 1);
  p.canonicalize();
  return p;
}

/// Refines @p p to the coarsest stable partition.  @p sign fills the pool
/// with one signature per state under the current blocks.
template <class Sign>
Partition refine(const Imc& m, Partition p, const char* stage, RunGuard* guard,
                 std::optional<Telemetry::Span>& span, Sign&& sign) {
  const std::size_t n = m.num_states();
  SignaturePool sigs(n);
  RateLumper lumper;
  BlockSplitter splitter(n);
  std::vector<std::uint32_t> next(n);
  std::uint64_t rounds = 0;
  std::uint64_t splitters = 0;
  std::size_t signature_bytes = 0;
  for (;;) {
    if (guard != nullptr) guard->check(stage);
    ++rounds;
    sigs.clear();
    lumper.reset(p.num_blocks);
    sign(p.block_of, sigs, lumper);
    signature_bytes = std::max(signature_bytes, sigs.bytes());
    const std::uint32_t num_blocks = splitter.split(p.block_of, sigs, next);
    const bool fixpoint = num_blocks == p.num_blocks;
    if (num_blocks > p.num_blocks) splitters += num_blocks - p.num_blocks;
    p.block_of.swap(next);
    p.num_blocks = num_blocks;
    if (fixpoint) break;
  }
  p.canonicalize();
  if (span) {
    span->metric("states", n);
    span->metric("rounds", rounds);
    span->metric("splitters", splitters);
    span->metric("final_blocks", p.num_blocks);
    span->metric("signature_bytes", signature_bytes);
  }
  return p;
}

}  // namespace

Partition strong_bisimulation(const Imc& m, const std::vector<std::uint32_t>* labels,
                              RunGuard* guard, Telemetry* telemetry) {
  const std::size_t n = m.num_states();
  Partition p = seed_partition(n, labels);
  std::optional<Telemetry::Span> span;
  if (telemetry != nullptr) span.emplace(telemetry->span("bisim"));
  if (n == 0) return p;

  return refine(m, std::move(p), "strong_bisimulation", guard, span,
                [&](const std::vector<std::uint32_t>& blocks, SignaturePool& sigs,
                    RateLumper& lumper) {
                  for (StateId s = 0; s < n; ++s) {
                    const std::size_t from = sigs.size();
                    for (const LtsTransition& t : m.out_interactive(s)) {
                      sigs.push(kInteractiveTag | t.action, blocks[t.to]);
                    }
                    // Rates of tau-unstable states are preempted by maximal
                    // progress and do not enter the signature.
                    if (m.stable(s)) sigs.push_rates(lumper, m, s, blocks);
                    sigs.close(s, from);
                  }
                });
}

TransitionBisimulation strong_bisimulation(const TransitionRows& rows,
                                           const std::vector<std::uint32_t>* labels,
                                           RunGuard* guard) {
  const std::size_t n = rows.num_states();
  const std::size_t m = rows.num_transitions();
  if (std::max(n, m) >= kNoState) {
    throw ModelError("strong_bisimulation: more than 2^32 - 1 states or transitions");
  }
  TransitionBisimulation out;
  out.states = seed_partition(n, labels);
  std::vector<std::uint32_t>& block_of = out.states.block_of;
  std::vector<std::uint32_t> block_sizes(out.states.num_blocks, 0);
  for (const std::uint32_t b : block_of) ++block_sizes[b];
  std::vector<std::uint32_t> class_of(m, 0);
  std::vector<std::uint32_t> class_sizes(m > 0 ? 1 : 0, static_cast<std::uint32_t>(m));

  // The source of every transition, and the transitions into every state.
  std::vector<StateId> source(m);
  std::vector<std::uint64_t> first_pred(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    for (std::uint64_t t = rows.first_transition[s]; t < rows.first_transition[s + 1]; ++t) {
      source[t] = s;
    }
  }
  for (const SparseEntry& e : rows.entries) ++first_pred[e.col + 1];
  for (std::size_t s = 0; s < n; ++s) first_pred[s + 1] += first_pred[s];
  std::vector<StateId> preds(rows.entries.size());
  {
    std::vector<std::uint64_t> at(first_pred.begin(), first_pred.end() - 1);
    for (StateId t = 0; t < m; ++t) {
      for (const SparseEntry& e : rows.rates(t)) preds[at[e.col]++] = t;
    }
  }

  // Per transition t: its latest lumped row, in the slots of `out.lumped`
  // from first_entry[t] on.  A row reaches at most as many blocks as the
  // transition has entries, so the rows never outgrow their slots.
  out.lumped.resize(rows.entries.size());
  std::vector<std::uint32_t> row_size(m, 0);

  SignaturePool transition_sigs(m), state_sigs(n);
  RateLumper lumper;
  BlockSplitter transition_splitter(0), state_splitter(0);
  // The first round signs everything; later rounds sign only the
  // transitions with a target that moved to a new block, and the states
  // with a transition that moved to a new class.  A moved element's new id
  // is fresh, so every signature that changed contains it, and a signature
  // that was not recomputed cannot have changed.
  std::vector<StateId> dirty(m), resign(n), moved;
  std::iota(dirty.begin(), dirty.end(), StateId{0});
  std::iota(resign.begin(), resign.end(), StateId{0});
  std::vector<std::uint64_t> dirty_round(m, 0), resign_round(n, 0);
  for (;;) {
    if (guard != nullptr) guard->check("strong_bisimulation");
    const std::uint64_t round = ++out.rounds;

    transition_sigs.clear();
    lumper.grow(block_sizes.size());
    for (const StateId t : dirty) {
      const std::size_t from = transition_sigs.size();
      LumpedRate* const row = out.lumped.data() + rows.first_entry[t];
      std::uint32_t size = 0;
      lumper.lump(rows.rates(t), block_of, [&](std::uint32_t blk, double rate) {
        row[size++] = LumpedRate{blk, rate};
        transition_sigs.push(kRateTag | blk, quantize(rate));
      });
      row_size[t] = size;
      transition_sigs.close(t, from);
    }
    moved.clear();
    transition_splitter.split_touched(dirty, class_of, class_sizes, transition_sigs, moved);

    if (round > 1) {
      resign.clear();
      for (const StateId t : moved) {
        if (resign_round[source[t]] == round) continue;
        resign_round[source[t]] = round;
        resign.push_back(source[t]);
      }
    }
    state_sigs.clear();
    for (const StateId s : resign) {
      const std::size_t from = state_sigs.size();
      for (std::uint64_t t = rows.first_transition[s]; t < rows.first_transition[s + 1]; ++t) {
        state_sigs.push(kInteractiveTag, class_of[t]);
      }
      state_sigs.close(s, from);
    }
    moved.clear();
    state_splitter.split_touched(resign, block_of, block_sizes, state_sigs, moved);
    if (moved.empty()) break;

    dirty.clear();
    for (const StateId s : moved) {
      for (std::uint64_t i = first_pred[s]; i < first_pred[s + 1]; ++i) {
        const StateId t = preds[i];
        if (dirty_round[t] == round) continue;
        dirty_round[t] = round;
        dirty.push_back(t);
      }
    }
  }

  out.states.num_blocks = static_cast<std::uint32_t>(block_sizes.size());
  const std::vector<std::uint32_t> canonical = out.states.canonicalize();
  out.transitions.block_of = std::move(class_of);
  out.transitions.num_blocks = static_cast<std::uint32_t>(class_sizes.size());
  out.transitions.canonicalize();
  // Pack the rows, in place: row t moves down to first_lumped[t].
  out.first_lumped.reserve(m + 1);
  out.first_lumped.push_back(0);
  std::uint64_t at = 0;
  for (StateId t = 0; t < m; ++t) {
    const std::uint64_t from = rows.first_entry[t];
    for (std::uint64_t i = from; i < from + row_size[t]; ++i) {
      out.lumped[at++] = LumpedRate{canonical[out.lumped[i].block], out.lumped[i].rate};
    }
    out.first_lumped.push_back(at);
  }
  out.lumped.resize(at);
  return out;
}

Partition branching_bisimulation(const Imc& m, const std::vector<std::uint32_t>* labels,
                                 RunGuard* guard, Telemetry* telemetry) {
  const std::size_t n = m.num_states();
  std::optional<Telemetry::Span> span;
  if (telemetry != nullptr) span.emplace(telemetry->span("bisim"));
  if (n == 0) return Partition::trivial(0);

  InertSccs sccs(n);
  return refine(
      m, seed_partition(n, labels), "branching_bisimulation", guard, span,
      [&](const std::vector<std::uint32_t>& blocks, SignaturePool& sigs, RateLumper& lumper) {
        // The inert subgraph (tau edges within one block) changes as the
        // partition refines; its SCC condensation is recomputed every round.
        sccs.run(m, blocks);

        // Per-state signatures with inert closure, SCC by SCC.  An inert tau
        // step to a different inert SCC absorbs the successor's finished
        // signature; members of a cyclic inert SCC reach each other inertly
        // and share one merged signature, so that later SCCs absorb the
        // complete closure.  A cyclic SCC's member signatures are adjacent in
        // the pool, so the merge sorts that stretch in place.
        std::size_t begin = 0;
        for (const std::size_t end : sccs.scc_end) {
          const std::size_t scc_from = sigs.size();
          for (std::size_t k = begin; k < end; ++k) {
            const StateId s = sccs.members[k];
            const std::size_t from = sigs.size();
            for (const LtsTransition& t : m.out_interactive(s)) {
              if (t.action == kTau && blocks[t.to] == blocks[s]) {
                if (sccs.scc_of[t.to] != sccs.scc_of[s]) sigs.push_signature_of(t.to);
              } else {
                sigs.push(kInteractiveTag | t.action, blocks[t.to]);
              }
            }
            if (m.stable(s)) sigs.push_rates(lumper, m, s, blocks);
            sigs.close(s, from);
          }
          if (end - begin > 1) {
            const StateId head = sccs.members[begin];
            sigs.close(head, scc_from);
            for (std::size_t k = begin + 1; k < end; ++k) sigs.share(sccs.members[k], head);
          }
          begin = end;
        }
      });
}

Imc quotient(const Imc& m, const Partition& partition, QuotientStyle style) {
  if (partition.num_states() != m.num_states()) {
    throw ModelError("quotient: partition size mismatch");
  }
  const std::uint32_t k = partition.num_blocks;
  ImcBuilder b(m.action_table());
  std::vector<std::string> names(k);
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (names[partition.block_of[s]].empty() && !m.state_name(s).empty()) {
      names[partition.block_of[s]] = m.state_name(s);
    }
  }
  for (std::uint32_t blk = 0; blk < k; ++blk) b.add_state(std::move(names[blk]));
  b.set_initial(partition.block_of[m.initial()]);

  // Interactive transitions: union over members, dropping inert tau steps
  // for branching quotients (they are stuttering); strong quotients keep
  // them as tau self-loops so instability is preserved.
  for (const LtsTransition& t : m.interactive_transitions()) {
    const std::uint32_t from = partition.block_of[t.from];
    const std::uint32_t to = partition.block_of[t.to];
    if (t.action == kTau && from == to && style == QuotientStyle::Branching) continue;
    b.add_interactive(from, t.action, to);
  }

  // Markov transitions: lumped vector of the first stable member of each
  // block; blocks without stable members carry none (maximal progress).
  // The builder orders them by target, so the lumping's emission order
  // does not show.
  RateLumper lumper;
  lumper.reset(k);
  BitVector done(k, false);
  for (StateId s = 0; s < m.num_states(); ++s) {
    const std::uint32_t blk = partition.block_of[s];
    if (done[blk] || !m.stable(s)) continue;
    done[blk] = true;
    lumper.lump(m, s, partition.block_of,
                [&](std::uint32_t to, double rate) { b.add_markov(blk, rate, to); });
  }

  return b.build();
}

Imc minimize_branching(const Imc& m) {
  return quotient(m, branching_bisimulation(m), QuotientStyle::Branching);
}

Imc minimize_strong(const Imc& m) {
  return quotient(m, strong_bisimulation(m), QuotientStyle::Strong);
}

}  // namespace unicon
