#include "bisim/partition.hpp"

namespace unicon {

Partition Partition::trivial(std::size_t num_states) {
  Partition p;
  p.block_of.assign(num_states, 0);
  p.num_blocks = num_states == 0 ? 0 : 1;
  return p;
}

std::vector<std::uint32_t> Partition::canonicalize() {
  std::vector<std::uint32_t> remap(num_blocks, static_cast<std::uint32_t>(-1));
  std::uint32_t next = 0;
  for (std::uint32_t& b : block_of) {
    if (remap[b] == static_cast<std::uint32_t>(-1)) remap[b] = next++;
    b = remap[b];
  }
  num_blocks = next;
  return remap;
}

}  // namespace unicon
