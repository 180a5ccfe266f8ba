// Adaptive octree (Cheng-Greengard-Rokhlin style variable-depth spatial
// decomposition) with the paper's tree-maintenance operations:
//
//   * build()      : recursive parallel partition of bodies into child boxes
//                    on the way down, lockless subtree assembly on the way up
//                    (Section III.B of the paper)
//   * collapse()   : hide a parent's children; the parent becomes an
//                    effective leaf (children are retained for reclamation)
//   * push_down()  : subdivide an effective leaf, reclaiming hidden children
//                    when they exist (Section IV.B/C)
//   * enforce_S()  : walk the effective tree re-establishing the global leaf
//                    capacity S (Section VI.A)
//   * rebin()      : re-partition moved bodies into the EXISTING effective
//                    structure without changing it (used between rebuilds)
//
// A node with children that are hidden behaves exactly like a leaf for every
// algorithm built on top ("is_effective_leaf"). Node ranges always refer to a
// contiguous span of the tree-ordered body array; a parent's span is the
// concatenation of its children's spans.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace afmm {

// This one-value enum remains only because the benchmark harness
// (perfbench/src/mirror.cpp) assigns TreeConfig::build_strategy, and the
// benchmark's files change only together with the benchmark itself.
// Nothing in the library reads the field: build() always runs the recursive
// partition.
enum class BuildStrategy : std::uint8_t { kPointer = 1 };

struct TreeConfig {
  int leaf_capacity = 64;   // S: subdivide a node iff it holds > S bodies
  int max_depth = 20;       // hard depth cap; must lie in [0, 21]
  Vec3 root_center{0.5, 0.5, 0.5};
  double root_half = 0.5;   // simulation cube is center +- half in each dim
  BuildStrategy build_strategy = BuildStrategy::kPointer;  // unread stub
};

// Center of `octant` (bit 0/1/2 = x/y/z upper half) of the box (center,
// half). build(), build_uniform(), push_down() and audit_tree() derive
// child geometry through this one expression, so centers agree bit-for-bit.
inline Vec3 child_box_center(const Vec3& c, double half, int octant) {
  const double q = half * 0.5;
  return {c.x + ((octant & 1) ? q : -q), c.y + ((octant & 2) ? q : -q),
          c.z + ((octant & 4) ? q : -q)};
}

struct OctreeNode {
  Vec3 center;
  double half = 0.0;
  int parent = -1;
  // Child node ids (one per octant; octant bit 0/1/2 = x/y/z >= center).
  // All eight are created together; children[d] is never -1 when
  // has_children is true. Empty octants are zero-count leaves.
  std::array<int, 8> children{-1, -1, -1, -1, -1, -1, -1, -1};
  bool has_children = false;
  int level = 0;
  bool collapsed = false;  // children hidden from the algorithm
  std::uint32_t begin = 0;  // body span [begin, begin+count) in tree order
  std::uint32_t count = 0;
};

// Complete, self-contained image of a tree's effective structure and body
// layout (checkpoint/restore): restoring it reproduces the tree bit-for-bit
// -- same nodes, same collapse flags, same spans, same permutation -- so a
// replay from a snapshot walks the identical traversal the original run did.
struct OctreeSnapshot {
  TreeConfig config;
  std::vector<OctreeNode> nodes;
  std::vector<Vec3> sorted_pos;
  std::vector<std::uint32_t> perm;
};

class AdaptiveOctree {
 public:
  // Builds the adaptive decomposition of `positions` with leaf capacity
  // config.leaf_capacity. The original array is not modified; the tree keeps
  // a permutation (tree order -> original index) plus sorted positions.
  // Bodies on a splitting plane go to the upper octant (`>=`). Non-finite
  // positions still build: NaN compares false, so it descends to the low
  // octant at every level (the resilience loop needs corrupted steps to
  // build, audit-fail, then roll back).
  // Throws std::invalid_argument when config.max_depth is outside [0, 21].
  void build(std::span<const Vec3> positions, const TreeConfig& config);

  // Builds a fixed-depth (uniform FMM) decomposition: every leaf at `depth`.
  // `depth` must lie in [0, config.max_depth] (and max_depth in [0, 21]).
  void build_uniform(std::span<const Vec3> positions, const TreeConfig& config,
                     int depth);

  // Re-partitions (possibly moved) bodies into the existing effective
  // structure. Structure, S and collapse flags are untouched; only node body
  // spans and the permutation change. Leaves may end up over/under-full.
  void rebin(std::span<const Vec3> positions);

  // --- paper's optimization operations -----------------------------------

  // Hide `node`'s children. Requires an effective parent. O(1).
  void collapse(int node);

  // Subdivide effective leaf `node` one level, reclaiming hidden children or
  // allocating fresh ones. Reclaimed children become effective leaves.
  // Returns false when the node is at max depth (no-op).
  bool push_down(int node);

  // Re-establish leaf capacity S over the whole effective tree: collapse
  // effective parents holding <= S bodies, push down effective leaves
  // holding > S (recursively, depth permitting). Returns the number of
  // collapse + push_down operations applied.
  int enforce_S(int S);

  // --- accessors -----------------------------------------------------------

  bool empty() const { return nodes_.empty(); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const OctreeNode& node(int i) const { return nodes_[i]; }
  int root() const { return 0; }

  bool is_effective_leaf(int i) const {
    const auto& n = nodes_[i];
    return !n.has_children || n.collapsed;
  }

  // Monotone stamp identifying the EFFECTIVE STRUCTURE of this tree: which
  // nodes exist, their geometry and their collapsed flags. Bumped by build(),
  // build_uniform(), collapse(), push_down() and (through those) enforce_S().
  // rebin() does NOT bump it: rebinning reassigns bodies within the existing
  // structure. Stamps are unique across every tree in the process, so equal
  // stamps mean the exact same structure (consumers like InteractionListCache
  // key on the stamp alone).
  std::uint64_t structure_version() const { return structure_version_; }

  // Stamp for the body content (spans + permutation): bumped whenever the
  // structure stamp is, and additionally by rebin().
  std::uint64_t content_version() const { return content_version_; }

  // Number of bodies (== size of the permutation).
  std::size_t num_bodies() const { return perm_.size(); }

  // Tree-ordered positions; node spans index into this.
  std::span<const Vec3> sorted_positions() const { return sorted_pos_; }
  // perm()[t] = original index of tree-ordered body t.
  std::span<const std::uint32_t> perm() const { return perm_; }

  const TreeConfig& config() const { return config_; }

  // Effective leaves in traversal order.
  std::vector<int> effective_leaves() const;
  // Depth of the effective tree (root = level 0).
  int effective_depth() const;
  // Maximum / total body count over effective leaves.
  int max_leaf_count() const;

  // Gather any per-body array into tree order using the permutation.
  template <typename T>
  void gather(std::span<const T> original, std::vector<T>& tree_order) const {
    tree_order.resize(perm_.size());
    for (std::size_t t = 0; t < perm_.size(); ++t)
      tree_order[t] = original[perm_[t]];
  }

  // Scatter a tree-ordered per-body array back to original order.
  template <typename T>
  void scatter(std::span<const T> tree_order, std::span<T> original) const {
    for (std::size_t t = 0; t < perm_.size(); ++t)
      original[perm_[t]] = tree_order[t];
  }

  // --- checkpoint/restore --------------------------------------------------

  // Copy of everything needed to reproduce this tree exactly.
  OctreeSnapshot snapshot() const;

  // Adopt a snapshot wholesale. The restored structure gets a FRESH version
  // stamp (stamps are process-unique), so list caches rebuild once and then
  // behave exactly as they would have on the original tree.
  void restore(const OctreeSnapshot& snap);

  // Chaos/test hook: mutable access to a node WITHOUT bumping the version
  // stamps -- silent corruption for auditor tests. Never use elsewhere.
  OctreeNode& mutable_node_for_test(int i) { return nodes_[i]; }

 private:
  struct Subtree;  // local build result, defined in octree.cpp

  void bump_structure();
  void bump_content();

  template <class LeafTest>
  void build_tree(std::span<const Vec3> positions, const TreeConfig& config,
                  LeafTest is_leaf);

  void partition_range(std::uint32_t begin, std::uint32_t end,
                       const Vec3& center, std::uint32_t bucket_begin[9]);
  int allocate_children(int node);
  void repartition_into_children(int node);

  TreeConfig config_;
  std::uint64_t structure_version_ = 0;
  std::uint64_t content_version_ = 0;
  std::vector<OctreeNode> nodes_;
  std::vector<Vec3> sorted_pos_;
  std::vector<std::uint32_t> perm_;
  std::vector<Vec3> scratch_pos_;
  std::vector<std::uint32_t> scratch_perm_;
  std::vector<std::uint8_t> scratch_key_;  // rebin's bucket per body
};

// Smallest cube centered on the centroid of `positions` containing them all
// (with a small margin); convenience for setting TreeConfig root geometry.
TreeConfig fit_cube(std::span<const Vec3> positions, TreeConfig base = {});

}  // namespace afmm
