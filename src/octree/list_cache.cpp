#include "octree/list_cache.hpp"

namespace afmm {

bool InteractionListCache::take_emptiness(const AdaptiveOctree& tree) {
  bool flipped = false;
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const char e = tree.node(i).count == 0;
    flipped |= e != empty_[i];
    empty_[i] = e;
  }
  return flipped;
}

const InteractionLists& InteractionListCache::get(
    const AdaptiveOctree& tree, const TraversalConfig& config) {
  if (!valid_ || structure_version_ != tree.structure_version() ||
      !config_.same_lists_as(config)) {
    lists_ = build_interaction_lists(tree, config);
    config_ = config;
    structure_version_ = tree.structure_version();
    content_version_ = tree.content_version();
    empty_.assign(static_cast<std::size_t>(tree.num_nodes()), 0);
    take_emptiness(tree);
    walked_ = false;
    valid_ = true;
    ++builds_;
    return lists_;
  }
  if (content_version_ == tree.content_version()) {
    ++hits_;
    return lists_;
  }

  // Bodies were rebinned inside the same structure. When a box emptied or
  // filled, the pruned walk's pairs changed: re-filter the count-blind
  // pairs, walked on the structure's first flip.
  content_version_ = tree.content_version();
  const bool flipped = take_emptiness(tree);
  if (flipped && !walked_) {
    walk_count_blind(tree, config_, rows_);
    walked_ = true;
    filter_interaction_lists(tree, rows_, empty_, lists_);
    ++builds_;
    return lists_;
  }
  if (flipped)
    filter_interaction_lists(tree, rows_, empty_, lists_);
  else
    count_p2p_interactions(tree, lists_);
  ++refreshes_;
  ++hits_;
  return lists_;
}

}  // namespace afmm
