#include "octree/octree.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace afmm {

namespace {
// Below this range size a build or rebin task recurses serially instead of
// spawning.
constexpr std::uint32_t kTaskCutoff = 2048;

// Trees of at most this many bodies rebin serially, with no parallel region:
// on 2 threads a parallel rebin breaks even near 5k Plummer bodies.
constexpr std::size_t kSerialRebinBodies = 8192;

// A rebin pass over a node above this many bodies is split across the
// team; smaller passes run on one thread.
constexpr std::uint32_t kTeamPassBodies = 32768;

// A rebin pass sorts a node's span into one bucket per (child, grandchild)
// octant pair.
constexpr int kPassBuckets = 64;

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

bool effective_leaf(const OctreeNode& n) {
  return !n.has_children || n.collapsed;
}

// One of the two arrays pairs a rebin moves bodies between: the tree's
// positions and permutation, or the scratch.
struct Bodies {
  Vec3* pos;
  std::uint32_t* perm;
};

// The bucket of a body in a rebin pass over one node: 8 * o1 + o2, with o1
// its child octant and o2 its grandchild octant, or 0 under an
// effective-leaf child.
struct PassKey {
  Vec3 center;
  std::array<Vec3, 8> child_center;
  std::array<int, 8> mask;  // 7 under an effective parent, else 0

  PassKey(const std::vector<OctreeNode>& nodes, const OctreeNode& n)
      : center(n.center) {
    for (int o = 0; o < 8; ++o) {
      const OctreeNode& c = nodes[n.children[o]];
      child_center[o] = c.center;
      mask[o] = effective_leaf(c) ? 0 : 7;
    }
  }
  std::uint8_t operator()(const Vec3& p) const {
    const int o = octant_of(p, center);
    return static_cast<std::uint8_t>(8 * o +
                                     (octant_of(p, child_center[o]) & mask[o]));
  }
};

// rebin's re-split, two tree levels per pass. A pass is one stable counting
// sort of an effective parent's span into its grandchild buckets, out of
// the array holding the span into the other one, so passes alternate
// between the tree arrays and the scratch; a leaf whose bodies end in the
// scratch copies its span back. A stable sort by a two-digit key leaves the
// bodies in the order of two stable one-digit partitions, so every span and
// the permutation come out as a one-level re-split leaves them.
class TwoLevelResplit {
 public:
  // `keys` holds one byte per body: a pass keeps each body's bucket there
  // between counting and moving it.
  TwoLevelResplit(std::vector<OctreeNode>& nodes, Bodies tree, Bodies scratch,
                  std::uint8_t* keys)
      : nodes_(nodes), tree_(tree), scratch_(scratch), keys_(keys) {}

  // Re-splits the effective subtree under `id`, whose bodies are in the
  // scratch when `in_scratch`, on the calling thread; with `spawn`, the
  // subtrees under effective parents above kTaskCutoff bodies become tasks.
  void settle(int id, bool in_scratch, bool spawn) {
    const OctreeNode& n = nodes_[id];
    if (effective_leaf(n)) {
      if (in_scratch) copy_back(n);
      return;
    }
    const PassKey key(nodes_, n);
    const Bodies src = in_scratch ? scratch_ : tree_;
    const std::uint32_t end = n.begin + n.count;
    Counts at{};
    count(key, src, n.begin, end, at);
    std::uint32_t bucket[kPassBuckets + 1];
    cursors({&at, 1}, n.begin, bucket);
    move(src, in_scratch ? tree_ : scratch_, n.begin, end, at);
    set_spans(n, bucket);
    int next[kPassBuckets];
    const int num_next = next_nodes(n, next);
    const bool next_scratch = !in_scratch;
    for (int k = 0; k < num_next; ++k) {
      const int id_k = next[k];
      if (spawn && nodes_[id_k].count > kTaskCutoff &&
          !effective_leaf(nodes_[id_k])) {
#pragma omp task firstprivate(id_k, next_scratch)
        settle(id_k, next_scratch, true);
      } else {
        settle(id_k, next_scratch, spawn);
      }
    }
  }

  // Called by every thread of a team: passes over effective parents above
  // kTeamPassBodies, breadth first, each split across the team, then the
  // rest of the tree as tasks.
  void settle_team(int root) {
#pragma omp single
    {
      enqueue(root, false);
      hist_.resize(static_cast<std::size_t>(omp_get_num_threads()));
    }
    for (std::size_t i = 0; i < heavy_.size(); ++i) team_pass(heavy_[i]);
#pragma omp single nowait
    for (std::size_t k = 0; k < light_.size(); ++k) {
      const Pending p = light_[k];
#pragma omp task firstprivate(p)
      settle(p.id, p.in_scratch, true);
    }
  }

 private:
  struct Pending {
    int id;
    bool in_scratch;
  };
  // One thread's bucket counts, then its write cursors; a cache line apart
  // from the next thread's.
  struct alignas(64) Counts {
    std::uint32_t at[kPassBuckets];
  };

  void enqueue(int id, bool in_scratch) {
    const OctreeNode& n = nodes_[id];
    (!effective_leaf(n) && n.count > kTeamPassBodies ? heavy_ : light_)
        .push_back({id, in_scratch});
  }

  // A pass split across the team: each thread counts its own contiguous
  // chunk of the span, and chunk t's share of bucket k lands after chunks
  // 0..t-1's, so the chunks keep their order.
  void team_pass(Pending p) {
    const OctreeNode& n = nodes_[p.id];
    const PassKey key(nodes_, n);
    const Bodies src = p.in_scratch ? scratch_ : tree_;
    const auto threads = static_cast<std::uint64_t>(omp_get_num_threads());
    const auto t = static_cast<std::uint64_t>(omp_get_thread_num());
    const auto begin =
        static_cast<std::uint32_t>(n.begin + n.count * t / threads);
    const auto end =
        static_cast<std::uint32_t>(n.begin + n.count * (t + 1) / threads);
    hist_[t] = {};
    count(key, src, begin, end, hist_[t]);
#pragma omp barrier
#pragma omp single
    {
      std::uint32_t bucket[kPassBuckets + 1];
      cursors(hist_, n.begin, bucket);
      set_spans(n, bucket);
      int next[kPassBuckets];
      const int num_next = next_nodes(n, next);
      for (int k = 0; k < num_next; ++k) enqueue(next[k], !p.in_scratch);
    }
    move(src, p.in_scratch ? tree_ : scratch_, begin, end, hist_[t]);
#pragma omp barrier
  }

  // Counts the buckets of the pass's bodies [b, e) into `at`, keeping each
  // body's bucket for move().
  void count(const PassKey& key, Bodies src, std::uint32_t b, std::uint32_t e,
             Counts& at) {
    for (std::uint32_t i = b; i < e; ++i) ++at.at[keys_[i] = key(src.pos[i])];
  }

  // Turns each chunk's bucket counts into its write cursors, chunk after
  // chunk within each bucket from `begin` on, and writes the bucket bounds.
  static void cursors(std::span<Counts> chunks, std::uint32_t begin,
                      std::uint32_t bucket[kPassBuckets + 1]) {
    for (int k = 0; k < kPassBuckets; ++k) {
      bucket[k] = begin;
      for (Counts& c : chunks) begin += std::exchange(c.at[k], begin);
    }
    bucket[kPassBuckets] = begin;
  }

  // Moves the bodies [b, e) from `src` to their cursors' slots in `dst`.
  void move(Bodies src, Bodies dst, std::uint32_t b, std::uint32_t e,
            Counts& at) {
    for (std::uint32_t i = b; i < e; ++i) {
      const std::uint32_t to = at.at[keys_[i]]++;
      dst.pos[to] = src.pos[i];
      dst.perm[to] = src.perm[i];
    }
  }

  // The nodes a pass over `n` leaves to settle, into `out`: each
  // effective-leaf child and each grandchild under an effective-parent
  // child, in octant order. Returns how many.
  int next_nodes(const OctreeNode& n, int out[kPassBuckets]) const {
    int count = 0;
    for (int c : n.children) {
      if (effective_leaf(nodes_[c])) {
        out[count++] = c;
      } else {
        for (int g : nodes_[c].children) out[count++] = g;
      }
    }
    return count;
  }

  // Spans of `n`'s children and of its effective-parent children's
  // children, from the pass's bucket bounds.
  void set_spans(const OctreeNode& n,
                 const std::uint32_t bucket[kPassBuckets + 1]) {
    for (int o = 0; o < 8; ++o) {
      OctreeNode& c = nodes_[n.children[o]];
      c.begin = bucket[8 * o];
      c.count = bucket[8 * o + 8] - bucket[8 * o];
      if (effective_leaf(c)) continue;
      for (int o2 = 0; o2 < 8; ++o2) {
        OctreeNode& g = nodes_[c.children[o2]];
        g.begin = bucket[8 * o + o2];
        g.count = bucket[8 * o + o2 + 1] - bucket[8 * o + o2];
      }
    }
  }

  void copy_back(const OctreeNode& leaf) {
    const std::uint32_t b = leaf.begin, e = leaf.begin + leaf.count;
    std::copy(scratch_.pos + b, scratch_.pos + e, tree_.pos + b);
    std::copy(scratch_.perm + b, scratch_.perm + e, tree_.perm + b);
  }

  std::vector<OctreeNode>& nodes_;
  Bodies tree_;
  Bodies scratch_;
  std::uint8_t* keys_;
  std::vector<Pending> heavy_, light_;  // settle_team's queues
  std::vector<Counts> hist_;            // per thread, for team passes
};
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

// The one partition recursion behind build() and build_uniform(); they
// differ only in `is_leaf(count, level)`. Nodes come out in preorder.
template <class LeafTest>
void AdaptiveOctree::build_tree(std::span<const Vec3> positions,
                                const TreeConfig& config, LeafTest is_leaf) {
  config_ = config;
  const auto n = static_cast<std::uint32_t>(positions.size());
  sorted_pos_.assign(positions.begin(), positions.end());
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), 0u);
  scratch_pos_.resize(n);
  scratch_perm_.resize(n);
  scratch_key_.resize(n);
  nodes_.clear();

  // Recursive lambda returning a self-contained subtree.
  auto build_rec = [&](auto&& self, std::uint32_t begin, std::uint32_t end,
                       Vec3 center, double half, int level) -> Subtree {
    Subtree out;
    OctreeNode node;
    node.center = center;
    node.half = half;
    node.level = level;
    node.begin = begin;
    node.count = end - begin;
    if (is_leaf(node.count, level)) {
      out.nodes.push_back(node);
      return out;
    }

    std::uint32_t bucket[9];
    partition_range(begin, end, center, bucket);

    Subtree children[8];
    const bool spawn = node.count > kTaskCutoff;
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

void AdaptiveOctree::build(std::span<const Vec3> positions,
                           const TreeConfig& config) {
  validate_tree_config(config, "AdaptiveOctree::build");
  const auto s_cap = static_cast<std::uint32_t>(config.leaf_capacity);
  const int max_depth = config.max_depth;
  build_tree(positions, config, [=](std::uint32_t count, int level) {
    return count <= s_cap || level >= max_depth;
  });
}

void AdaptiveOctree::build_uniform(std::span<const Vec3> positions,
                                   const TreeConfig& config, int depth) {
  validate_tree_config(config, "AdaptiveOctree::build_uniform");
  if (depth < 0 || depth > config.max_depth)
    throw std::invalid_argument(
        "build_uniform: depth must be in [0, config.max_depth]");
  build_tree(positions, config,
             [=](std::uint32_t, int level) { return level >= depth; });
}

void AdaptiveOctree::rebin(std::span<const Vec3> positions) {
  if (nodes_.empty()) throw std::logic_error("rebin: tree not built");
  if (positions.size() != perm_.size())
    throw std::invalid_argument("rebin: body count changed");

  // Refresh tree-ordered positions from the (moved) originals, then re-split
  // the effective tree top down, two levels per pass. Passes own disjoint
  // spans, so on large trees subtrees re-split as tasks, and passes over
  // large nodes split across the team, with the serial result bit for bit.
  const std::size_t n = perm_.size();
  TwoLevelResplit resplit(nodes_, {sorted_pos_.data(), perm_.data()},
                          {scratch_pos_.data(), scratch_perm_.data()},
                          scratch_key_.data());
  if (n <= kSerialRebinBodies) {
    for (std::size_t t = 0; t < n; ++t) sorted_pos_[t] = positions[perm_[t]];
    resplit.settle(root(), false, false);
  } else {
#pragma omp parallel
    {
#pragma omp for schedule(static)
      for (std::size_t t = 0; t < n; ++t) sorted_pos_[t] = positions[perm_[t]];
      resplit.settle_team(root());
    }
  }
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
  scratch_key_.resize(perm_.size());
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
