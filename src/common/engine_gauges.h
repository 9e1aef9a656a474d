#ifndef OIJ_COMMON_ENGINE_GAUGES_H_
#define OIJ_COMMON_ENGINE_GAUGES_H_

#include <cstdint>
#include <vector>

namespace oij {

/// Allocator observability (mem/node_arena.h), summed across the engine's
/// joiner arenas. `pooled` says the engine owns node arenas (Scale-OIJ);
/// everything is zero for engines without them.
struct MemStats {
  bool pooled = false;
  uint64_t arena_reserved_bytes = 0;
  uint64_t arena_live_nodes = 0;
  uint64_t arena_allocations = 0;
  uint64_t arena_slab_recycles = 0;
  uint64_t arena_oversize_allocs = 0;
  /// Nodes retired to the EpochManager, awaiting an epoch drain.
  uint64_t ebr_retired_backlog = 0;
};

/// NUMA placement observability (src/topo/, DESIGN.md §5i). `active` is
/// true when a placement plan pins the joiners; the per-joiner arrays are
/// filled only then. The per-node arrays are indexed by node ordinal and
/// split the arena gauges by the owning joiner's node (empty for engines
/// without arenas). The cross counters tally scheduler decisions that
/// crossed a socket: partition replications the rebalancer accepted onto
/// a remote node after same-node headroom ran out, and round-robin tuple
/// dispatches that left the team leader's node.
struct NumaStats {
  bool active = false;
  uint32_t nodes = 1;
  std::vector<int> pin_cpus;          ///< per joiner; -1 = unpinned
  std::vector<uint32_t> joiner_node;  ///< per joiner: node ordinal
  std::vector<uint64_t> per_node_arena_bytes;
  std::vector<uint64_t> per_node_arena_live_nodes;
  uint64_t cross_replications = 0;
  uint64_t cross_dispatches = 0;
};

}  // namespace oij

#endif  // OIJ_COMMON_ENGINE_GAUGES_H_
