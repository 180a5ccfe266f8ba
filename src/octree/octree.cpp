#include "octree/octree.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>

namespace afmm {

namespace {
// Below this range size a build task recurses serially instead of spawning.
constexpr std::uint32_t kTaskCutoff = 2048;

// Deepest level a tree may reach: a level-21 cell is 2^-21 of the root's
// width. Beyond that, subdivision only stacks levels around (near-)
// coincident bodies, which the max_depth escape hatch exists to stop.
constexpr int kMaxTreeDepth = 21;

int octant_of(const Vec3& p, const Vec3& c) {
  return (p.x >= c.x ? 1 : 0) | (p.y >= c.y ? 2 : 0) | (p.z >= c.z ? 4 : 0);
}

void validate_tree_config(const TreeConfig& config, const char* who) {
  if (config.max_depth < 0 || config.max_depth > kMaxTreeDepth)
    throw std::invalid_argument(std::string(who) +
                                ": max_depth must be in [0, 21]");
}

// Process-wide stamp source: version numbers are never reused, even across
// distinct trees, so a stamp fully identifies one structure snapshot.
std::uint64_t next_version_stamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

void AdaptiveOctree::bump_structure() {
  structure_version_ = next_version_stamp();
  content_version_ = structure_version_;
}

void AdaptiveOctree::bump_content() { content_version_ = next_version_stamp(); }

// Local result of a recursive build task: a self-contained subtree whose
// root is nodes[0] and whose child links are indices into the same vector.
// Subtrees are concatenated (with index fixup) on the way back up the
// recursion, so no locking is ever needed on a shared node pool.
struct AdaptiveOctree::Subtree {
  std::vector<OctreeNode> nodes;
};

void AdaptiveOctree::partition_range(std::uint32_t begin, std::uint32_t end,
                                     const Vec3& center,
                                     std::uint32_t bucket_begin[9]) {
  std::uint32_t counts[8] = {};
  for (std::uint32_t i = begin; i < end; ++i)
    ++counts[octant_of(sorted_pos_[i], center)];

  std::uint32_t offsets[8];
  std::uint32_t acc = begin;
  for (int o = 0; o < 8; ++o) {
    bucket_begin[o] = acc;
    offsets[o] = acc;
    acc += counts[o];
  }
  bucket_begin[8] = acc;

  for (std::uint32_t i = begin; i < end; ++i) {
    const int o = octant_of(sorted_pos_[i], center);
    scratch_pos_[offsets[o]] = sorted_pos_[i];
    scratch_perm_[offsets[o]] = perm_[i];
    ++offsets[o];
  }
  std::copy(scratch_pos_.begin() + begin, scratch_pos_.begin() + end,
            sorted_pos_.begin() + begin);
  std::copy(scratch_perm_.begin() + begin, scratch_perm_.begin() + end,
            perm_.begin() + begin);
}

namespace {
// Appends `sub` to `dst`, remapping child links, and returns the index the
// subtree root landed on.
int splice_subtree(std::vector<OctreeNode>& dst,
                   std::vector<OctreeNode>&& sub) {
  const int offset = static_cast<int>(dst.size());
  for (auto& n : sub) {
    if (n.has_children)
      for (auto& c : n.children) c += offset;
    if (n.parent >= 0) n.parent += offset;
    dst.push_back(n);
  }
  return offset;
}
}  // namespace

void AdaptiveOctree::build(std::span<const Vec3> positions,
                           const TreeConfig& config) {
  validate_tree_config(config, "AdaptiveOctree::build");
  config_ = config;
  const auto n = static_cast<std::uint32_t>(positions.size());
  sorted_pos_.assign(positions.begin(), positions.end());
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), 0u);
  scratch_pos_.resize(n);
  scratch_perm_.resize(n);
  nodes_.clear();

  // Recursive lambda returning a self-contained subtree.
  const int s_cap = config_.leaf_capacity;
  const int max_depth = config_.max_depth;
  auto build_rec = [&](auto&& self, std::uint32_t begin, std::uint32_t end,
                       Vec3 center, double half, int level) -> Subtree {
    Subtree out;
    OctreeNode node;
    node.center = center;
    node.half = half;
    node.level = level;
    node.begin = begin;
    node.count = end - begin;
    if (node.count <= static_cast<std::uint32_t>(s_cap) ||
        level >= max_depth) {
      out.nodes.push_back(node);
      return out;
    }

    std::uint32_t bucket[9];
    partition_range(begin, end, center, bucket);

    Subtree children[8];
    const bool spawn =
        config_.parallel_build && node.count > kTaskCutoff;
    for (int o = 0; o < 8; ++o) {
      const Vec3 cc = child_box_center(center, half, o);
      if (spawn) {
#pragma omp task shared(children) firstprivate(o, cc, bucket)
        children[o] =
            self(self, bucket[o], bucket[o + 1], cc, half * 0.5, level + 1);
      } else {
        children[o] =
            self(self, bucket[o], bucket[o + 1], cc, half * 0.5, level + 1);
      }
    }
    if (spawn) {
#pragma omp taskwait
    }

    node.has_children = true;
    out.nodes.push_back(node);
    for (int o = 0; o < 8; ++o) {
      const int at = splice_subtree(out.nodes, std::move(children[o].nodes));
      out.nodes[0].children[o] = at;
      out.nodes[at].parent = 0;
    }
    return out;
  };

  Subtree result;
#pragma omp parallel
#pragma omp single nowait
  result = build_rec(build_rec, 0, n, config_.root_center, config_.root_half, 0);

  nodes_ = std::move(result.nodes);
  bump_structure();
}

void AdaptiveOctree::build_uniform(std::span<const Vec3> positions,
                                   const TreeConfig& config, int depth) {
  validate_tree_config(config, "AdaptiveOctree::build_uniform");
  if (depth < 0 || depth > config.max_depth)
    throw std::invalid_argument(
        "build_uniform: depth must be in [0, config.max_depth]");
  config_ = config;
  const auto n = static_cast<std::uint32_t>(positions.size());
  sorted_pos_.assign(positions.begin(), positions.end());
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), 0u);
  scratch_pos_.resize(n);
  scratch_perm_.resize(n);
  nodes_.clear();

  auto build_rec = [&](auto&& self, std::uint32_t begin, std::uint32_t end,
                       Vec3 center, double half, int level) -> int {
    OctreeNode node;
    node.center = center;
    node.half = half;
    node.level = level;
    node.begin = begin;
    node.count = end - begin;
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back(node);
    if (level >= depth) return id;

    std::uint32_t bucket[9];
    partition_range(begin, end, center, bucket);
    for (int o = 0; o < 8; ++o) {
      const int child = self(self, bucket[o], bucket[o + 1],
                             child_box_center(center, half, o), half * 0.5,
                             level + 1);
      nodes_[id].children[o] = child;
      nodes_[child].parent = id;
    }
    nodes_[id].has_children = true;
    return id;
  };
  build_rec(build_rec, 0, n, config_.root_center, config_.root_half, 0);
  bump_structure();
}

void AdaptiveOctree::rebin(std::span<const Vec3> positions) {
  if (nodes_.empty()) throw std::logic_error("rebin: tree not built");
  if (positions.size() != perm_.size())
    throw std::invalid_argument("rebin: body count changed");

  // Refresh tree-ordered positions from the (moved) originals.
  for (std::size_t t = 0; t < perm_.size(); ++t)
    sorted_pos_[t] = positions[perm_[t]];

  // Top-down re-split of every effective internal node's span.
  auto visit = [&](auto&& self, int id) -> void {
    if (is_effective_leaf(id)) return;
    repartition_into_children(id);
    for (int c : nodes_[id].children) self(self, c);
  };
  visit(visit, root());
  bump_content();
}

void AdaptiveOctree::repartition_into_children(int id) {
  OctreeNode& n = nodes_[id];
  std::uint32_t bucket[9];
  partition_range(n.begin, n.begin + n.count, n.center, bucket);
  for (int o = 0; o < 8; ++o) {
    OctreeNode& c = nodes_[n.children[o]];
    c.begin = bucket[o];
    c.count = bucket[o + 1] - bucket[o];
  }
}

void AdaptiveOctree::collapse(int id) {
  if (is_effective_leaf(id))
    throw std::logic_error("collapse: node is already an effective leaf");
  nodes_[id].collapsed = true;
  bump_structure();
}

bool AdaptiveOctree::push_down(int id) {
  if (!is_effective_leaf(id))
    throw std::logic_error("push_down: node is not an effective leaf");
  OctreeNode& n = nodes_[id];
  if (n.level >= config_.max_depth) return false;

  if (n.has_children) {
    // Reclaim hidden children; they resurface as effective leaves since any
    // deeper structure below them has stale spans.
    n.collapsed = false;
    for (int c : n.children)
      nodes_[c].collapsed = nodes_[c].has_children;
  } else {
    const int first = allocate_children(id);
    OctreeNode& parent = nodes_[id];  // re-fetch: vector may have grown
    for (int o = 0; o < 8; ++o) parent.children[o] = first + o;
    parent.has_children = true;
    parent.collapsed = false;
  }
  repartition_into_children(id);
  bump_structure();
  return true;
}

int AdaptiveOctree::allocate_children(int id) {
  const OctreeNode parent = nodes_[id];
  const int first = static_cast<int>(nodes_.size());
  for (int o = 0; o < 8; ++o) {
    OctreeNode c;
    c.center = child_box_center(parent.center, parent.half, o);
    c.half = parent.half * 0.5;
    c.level = parent.level + 1;
    c.parent = id;
    nodes_.push_back(c);
  }
  return first;
}

int AdaptiveOctree::enforce_S(int S) {
  int ops = 0;
  auto visit = [&](auto&& self, int id) -> void {
    if (is_effective_leaf(id)) {
      if (nodes_[id].count > static_cast<std::uint32_t>(S) &&
          nodes_[id].level < config_.max_depth) {
        if (push_down(id)) {
          ++ops;
          // Copy the child ids: recursion may push_back and reallocate.
          const auto kids = nodes_[id].children;
          for (int c : kids) self(self, c);
        }
      }
      return;
    }
    if (nodes_[id].count <= static_cast<std::uint32_t>(S)) {
      collapse(id);
      ++ops;
      return;
    }
    const auto kids = nodes_[id].children;
    for (int c : kids) self(self, c);
  };
  if (!nodes_.empty()) visit(visit, root());
  return ops;
}

std::vector<int> AdaptiveOctree::effective_leaves() const {
  std::vector<int> out;
  auto visit = [&](auto&& self, int id) -> void {
    if (is_effective_leaf(id)) {
      out.push_back(id);
      return;
    }
    for (int c : nodes_[id].children) self(self, c);
  };
  if (!nodes_.empty()) visit(visit, root());
  return out;
}

int AdaptiveOctree::effective_depth() const {
  int depth = 0;
  auto visit = [&](auto&& self, int id) -> void {
    depth = std::max(depth, nodes_[id].level);
    if (is_effective_leaf(id)) return;
    for (int c : nodes_[id].children) self(self, c);
  };
  if (!nodes_.empty()) visit(visit, root());
  return depth;
}

int AdaptiveOctree::max_leaf_count() const {
  std::uint32_t worst = 0;
  for (int leaf : effective_leaves())
    worst = std::max(worst, nodes_[leaf].count);
  return static_cast<int>(worst);
}

void AdaptiveOctree::check_invariants() const {
  auto fail = [](const char* what) {
    std::fprintf(stderr, "octree invariant violated: %s\n", what);
    std::abort();
  };
  if (nodes_.empty()) return;
  if (nodes_[0].begin != 0 || nodes_[0].count != perm_.size())
    fail("root span must cover all bodies");

  std::vector<char> seen(perm_.size(), 0);
  for (auto t : perm_) {
    if (t >= perm_.size() || seen[t]) fail("perm is not a permutation");
    seen[t] = 1;
  }

  auto visit = [&](auto&& self, int id) -> void {
    const auto& n = nodes_[id];
    if (is_effective_leaf(id)) return;
    std::uint32_t at = n.begin;
    std::uint32_t sum = 0;
    for (int o = 0; o < 8; ++o) {
      const auto& c = nodes_[n.children[o]];
      if (c.parent != id) fail("child parent link");
      if (c.level != n.level + 1) fail("child level");
      if (c.half != n.half * 0.5) fail("child half size");
      if (c.begin != at) fail("child spans must tile the parent span");
      at += c.count;
      sum += c.count;
      if (!(c.center == child_box_center(n.center, n.half, o)))
        fail("child center");
    }
    if (sum != n.count) fail("child counts must sum to parent count");
    for (int c : n.children) self(self, c);
  };
  visit(visit, root());
}

OctreeSnapshot AdaptiveOctree::snapshot() const {
  return OctreeSnapshot{config_, nodes_, sorted_pos_, perm_};
}

void AdaptiveOctree::restore(const OctreeSnapshot& snap) {
  config_ = snap.config;
  nodes_ = snap.nodes;
  sorted_pos_ = snap.sorted_pos;
  perm_ = snap.perm;
  scratch_pos_.resize(sorted_pos_.size());
  scratch_perm_.resize(perm_.size());
  bump_structure();
}

TreeConfig fit_cube(std::span<const Vec3> positions, TreeConfig base) {
  if (positions.empty()) return base;
  Vec3 lo = positions[0];
  Vec3 hi = positions[0];
  for (const auto& p : positions) {
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  base.root_center = (lo + hi) * 0.5;
  double half = 0.0;
  for (int d = 0; d < 3; ++d) half = std::max(half, (hi[d] - lo[d]) * 0.5);
  base.root_half = half * 1.0000001 + 1e-12;
  return base;
}

}  // namespace afmm
