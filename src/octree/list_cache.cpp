#include "octree/list_cache.hpp"

namespace afmm {

bool InteractionListCache::usable(const AdaptiveOctree& tree,
                                  const TraversalConfig& config) const {
  if (!valid_ || structure_version_ != tree.structure_version() ||
      !config_.same_lists_as(config))
    return false;
  if (content_version_ == tree.content_version()) return true;

  // Bodies were rebinned inside the same structure. The walk is count-blind
  // except for empty-box pruning.
  for (int i = 0; i < tree.num_nodes(); ++i)
    if (empty_at_build_[i] != (tree.node(i).count == 0)) return false;
  return true;
}

const InteractionLists& InteractionListCache::get(
    const AdaptiveOctree& tree, const TraversalConfig& config) {
  if (usable(tree, config)) {
    if (content_version_ != tree.content_version()) {
      // Same structure, moved bodies: refresh Interactions(t) in O(pairs).
      count_p2p_interactions(tree, lists_);
      content_version_ = tree.content_version();
      ++refreshes_;
    }
    ++hits_;
    return lists_;
  }

  lists_ = build_interaction_lists(tree, config);
  config_ = config;
  structure_version_ = tree.structure_version();
  content_version_ = tree.content_version();
  empty_at_build_.assign(static_cast<std::size_t>(tree.num_nodes()), 0);
  for (int i = 0; i < tree.num_nodes(); ++i)
    empty_at_build_[i] = tree.node(i).count == 0;
  valid_ = true;
  ++builds_;
  return lists_;
}

}  // namespace afmm
