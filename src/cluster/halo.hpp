// Local-essential-tree halo extraction over the shard map.
//
// With bodies sharded by contiguous Morton ranges, every FMM interaction the
// existing MAC produced either stays inside one shard or crosses a range
// boundary. The crossing part is each shard's LET halo:
//
//   * body halo      -- a P2P source leaf owned by shard A whose target leaf
//                       lives on shard B: A ships that leaf's bodies
//                       (position + one source value per rhs) to B;
//   * multipole halo -- an M2L source node owned by A targeting a node owned
//                       by B: A ships that node's multipole expansion (every
//                       coefficient of order <= p, per rhs).
//
// Ownership of a tree node is the owner of its span's first body -- node
// spans are contiguous in tree order, so for leaves (what P2P sources are,
// and what a leaf-boundary split keeps whole) this is exact. Duplicates are
// deduplicated per (source, destination shard): a leaf needed by ten target
// leaves of the same shard crosses the wire once.
//
// The plan is a pure function of (tree structure, interaction lists, shard
// map), so every node of the simulated cluster derives the identical
// message set -- the exchange then only needs the per-step seed to replay
// drops and retries deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/interconnect.hpp"
#include "cluster/shard_map.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"

namespace afmm {

struct HaloPlan {
  // One aggregated message per ordered (src, dst) shard pair with traffic,
  // sorted by (src, dst); key = src * num_shards + dst.
  std::vector<HaloMessage> messages;
  std::uint64_t body_halo = 0;       // bodies shipped (deduplicated)
  std::uint64_t multipole_halo = 0;  // multipole expansions shipped
  std::uint64_t total_bytes = 0;
};

// `order` is the expansion order p and `nrhs` the problem's right-hand-side
// count: a halo body is 3 + nrhs doubles on the wire (gravity: position and
// mass, 32 bytes), a multipole is MultiIndexSet::count(p) * nrhs doubles.
HaloPlan build_halo_plan(const AdaptiveOctree& tree,
                         const InteractionLists& lists, const ShardMap& map,
                         int order, int nrhs);

}  // namespace afmm
