// State-space partitions used by the bisimulation minimizers.
#pragma once

#include <cstdint>
#include <vector>

#include "support/symbols.hpp"

namespace unicon {

/// A partition of a state space into blocks 0..num_blocks-1.
struct Partition {
  std::vector<std::uint32_t> block_of;  // state -> block
  std::uint32_t num_blocks = 0;

  std::size_t num_states() const { return block_of.size(); }

  /// The trivial partition with a single block.
  static Partition trivial(std::size_t num_states);

  /// True iff @p a and @p b lie in the same block.
  bool same(StateId a, StateId b) const { return block_of[a] == block_of[b]; }

  /// Renumbers blocks so they appear in order of their first state; the
  /// result is canonical and comparable.  Returns the old -> new block map.
  std::vector<std::uint32_t> canonicalize();

  friend bool operator==(const Partition&, const Partition&) = default;
};

}  // namespace unicon
