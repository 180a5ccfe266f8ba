// Versioned memoization of the dual-tree traversal.
//
// Interaction lists depend only on the tree's effective STRUCTURE (node
// geometry + collapsed flags), on which nodes are empty, and on the
// list-shaping TraversalConfig fields -- not on where exactly the bodies sit
// inside their leaves. The cache keys on AdaptiveOctree::structure_version()
// and returns the memoized lists when nothing changed, which removes the
// repeated rebuilds of the balancer loop (the same structure used to be
// re-traversed up to five times per step: twice in solve, plus every
// dry_run of FineGrainedOptimize and the Observation-state prediction).
//
// A rebin() (content_version bump with the structure unchanged) does NOT
// re-traverse. An O(nodes) emptiness comparison tells its two cases apart:
//   * No node flipped between empty and non-empty: the cached P2P
//     interaction counts are refreshed in O(pairs) from the current node
//     counts, so GPU partitioning and cost prediction keep seeing accurate
//     Interactions(t).
//   * Some node flipped. Emptiness is the one input the walk prunes on, so
//     the lists change. The first flip on a structure walks it once more
//     without the empty-box cut (walk_count_blind) and keeps those pairs
//     grouped by target (PairRows); that flip and every later one on the
//     same structure rebuild the lists from the rows with no walk
//     (filter_interaction_lists: each row's kept pairs counted, summed and
//     copied, rows in parallel; P2P items ordered by their first kept
//     pair), equal to a fresh build field for field.
// A structure or config change marks the kept pairs stale and builds with
// the pruned walk, as the first get() does.
//
// Not thread-safe: one cache serves one solver/balancer pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "octree/octree.hpp"
#include "octree/traversal.hpp"

namespace afmm {

class InteractionListCache {
 public:
  // Returns the lists for (tree, config), walking the tree only when the
  // structure version or the list-shaping config fields changed since the
  // cached build, or on the first emptiness flip of a structure. The
  // reference stays valid until the next get().
  const InteractionLists& get(const AdaptiveOctree& tree,
                              const TraversalConfig& config);

  // Instrumentation. builds: walks of either kind (pruned or count-blind).
  // hits: returns that walked nothing. refreshes: the hits that follow a
  // rebin, by count refresh or by re-filtering the kept pairs.
  std::uint64_t builds() const { return builds_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t refreshes() const { return refreshes_; }

 private:
  // Takes the tree's emptiness into empty_; true when some node flipped.
  bool take_emptiness(const AdaptiveOctree& tree);

  InteractionLists lists_;
  TraversalConfig config_;
  std::uint64_t structure_version_ = 0;
  std::uint64_t content_version_ = 0;
  std::vector<char> empty_;  // per node: count was zero at the last get()
  // The structure's count-blind pairs grouped by target, walked on its first
  // emptiness flip. The storage outlives the structure, so the next
  // structure's grouping writes into memory that is already mapped.
  PairRows rows_;
  bool walked_ = false;
  bool valid_ = false;

  std::uint64_t builds_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace afmm
