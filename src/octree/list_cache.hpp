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
// re-traverse. Instead the cached P2P interaction counts are refreshed in
// O(pairs) from the current node counts, so GPU partitioning and cost
// prediction keep seeing accurate Interactions(t). One rebin effect does
// force a full rebuild, because it changes the traversal itself: a node
// flipping between empty and non-empty (the walk prunes empty boxes),
// detected by an O(nodes) emptiness comparison.
//
// Not thread-safe: one cache serves one solver/balancer pipeline.
#pragma once

#include <cstdint>

#include "octree/octree.hpp"
#include "octree/traversal.hpp"

namespace afmm {

class InteractionListCache {
 public:
  // Returns the lists for (tree, config), re-running the traversal only when
  // the structure version or the list-shaping config fields changed since
  // the cached build. The reference stays valid until the next get().
  const InteractionLists& get(const AdaptiveOctree& tree,
                              const TraversalConfig& config);

  // Instrumentation: full traversals run, memoized returns, and in-place
  // post-rebin count refreshes (a refresh is also counted as a hit).
  std::uint64_t builds() const { return builds_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t refreshes() const { return refreshes_; }

 private:
  bool usable(const AdaptiveOctree& tree, const TraversalConfig& config) const;

  InteractionLists lists_;
  TraversalConfig config_;
  std::uint64_t structure_version_ = 0;
  std::uint64_t content_version_ = 0;
  std::vector<char> empty_at_build_;  // per node: count was zero at build
  bool valid_ = false;

  std::uint64_t builds_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace afmm
