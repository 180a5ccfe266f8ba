#include "octree/traversal.hpp"

#include <array>
#include <cmath>
#include <utility>

namespace afmm {

namespace {
constexpr double kSqrt3 = 1.7320508075688772;

// Pair subtrees whose smaller side holds fewer bodies than this recurse
// serially instead of spawning a task (the kTaskCutoff pattern of
// core/fmm_solver.cpp).
constexpr std::uint32_t kTaskCutoff = 256;

bool well_separated(const OctreeNode& a, const OctreeNode& b, double theta) {
  const double ra = a.half * kSqrt3;
  const double rb = b.half * kSqrt3;
  const double s = (ra + rb) / theta;
  return norm2(a.center - b.center) > s * s;
}

// Flat (target, source) pair streams of one (sub)walk. Tasks fill private
// buffers which are concatenated in child order afterwards, so the merged
// streams are bit-identical to the serial depth-first walk.
struct PairBufs {
  std::vector<std::pair<int, int>> m2l, p2p;

  void append(PairBufs&& o) {
    auto cat = [](std::vector<std::pair<int, int>>& dst,
                  std::vector<std::pair<int, int>>& src) {
      if (dst.empty())
        dst = std::move(src);
      else
        dst.insert(dst.end(), src.begin(), src.end());
    };
    cat(m2l, o.m2l);
    cat(p2p, o.p2p);
  }
};

void dual_walk(const AdaptiveOctree& tree, const TraversalConfig& config,
               bool tasks, int ta, int sb, PairBufs& out) {
  const OctreeNode& a = tree.node(ta);
  const OctreeNode& b = tree.node(sb);
  if (a.count == 0 || b.count == 0) return;
  if (well_separated(a, b, config.theta)) {
    out.m2l.emplace_back(ta, sb);
    return;
  }
  const bool la = tree.is_effective_leaf(ta);
  const bool lb = tree.is_effective_leaf(sb);
  if (la && lb) {
    out.p2p.emplace_back(ta, sb);
    return;
  }
  // Recurse into the larger box (target preferred on ties) so both sides
  // shrink evenly; this keeps list sizes bounded for adaptive trees.
  const bool into_a = lb || (!la && a.half >= b.half);
  const std::array<int, 8> kids = into_a ? a.children : b.children;
  const std::uint32_t other = (into_a ? b : a).count;

  bool spawn[8];
  bool spawn_any = false;
  for (int o = 0; o < 8; ++o) {
    spawn[o] = tasks && other > kTaskCutoff &&
               tree.node(kids[o]).count > kTaskCutoff;
    spawn_any |= spawn[o];
  }
  if (!spawn_any) {
    for (int o = 0; o < 8; ++o) {
      if (into_a)
        dual_walk(tree, config, tasks, kids[o], sb, out);
      else
        dual_walk(tree, config, tasks, ta, kids[o], out);
    }
    return;
  }
  // Every child (spawned or not) writes its own buffer: the in-order merge
  // below is what keeps the pair streams identical to the serial walk.
  std::array<PairBufs, 8> kid;
  for (int o = 0; o < 8; ++o) {
    const int nta = into_a ? kids[o] : ta;
    const int nsb = into_a ? sb : kids[o];
    PairBufs* dst = &kid[o];
    if (spawn[o]) {
#pragma omp task firstprivate(nta, nsb, dst) shared(tree, config)
      dual_walk(tree, config, true, nta, nsb, *dst);
    } else {
      dual_walk(tree, config, tasks, nta, nsb, *dst);
    }
  }
#pragma omp taskwait
  for (int o = 0; o < 8; ++o) out.append(std::move(kid[o]));
}

// Adds the tree-walk terms (P2M/M2M/L2L/L2P) of the subtree under `id`.
void count_walk(const AdaptiveOctree& tree, int id, OpCounts& c) {
  const OctreeNode& n = tree.node(id);
  if (n.count == 0) return;
  if (tree.is_effective_leaf(id)) {
    ++c.p2m;
    ++c.l2p;
    c.p2m_bodies += n.count;
    c.l2p_bodies += n.count;
    return;
  }
  for (int ch : n.children) {
    if (tree.node(ch).count == 0) continue;
    ++c.m2m;
    ++c.l2l;
    count_walk(tree, ch, c);
  }
}
}  // namespace

InteractionLists build_interaction_lists(const AdaptiveOctree& tree,
                                         const TraversalConfig& config) {
  InteractionLists out;
  if (tree.empty()) return out;

  const int n = tree.num_nodes();
  PairBufs bufs;
  if (tree.node(tree.root()).count > kTaskCutoff) {
#pragma omp parallel
#pragma omp single nowait
    dual_walk(tree, config, true, tree.root(), tree.root(), bufs);
  } else {
    dual_walk(tree, config, false, tree.root(), tree.root(), bufs);
  }
  auto& m2l_pairs = bufs.m2l;
  auto& p2p_pairs = bufs.p2p;

  // Group pair streams into CSR by target.
  auto to_csr = [n](const std::vector<std::pair<int, int>>& pairs,
                    std::vector<std::uint32_t>& offset,
                    std::vector<int>& sources) {
    offset.assign(n + 1, 0);
    for (const auto& [t, s] : pairs) offset[t + 1]++;
    for (int i = 0; i < n; ++i) offset[i + 1] += offset[i];
    sources.resize(pairs.size());
    std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (const auto& [t, s] : pairs) sources[cursor[t]++] = s;
  };
  to_csr(m2l_pairs, out.m2l_offset, out.m2l_sources);
  out.total_m2l_pairs = m2l_pairs.size();

  // Group P2P pairs into per-target work items.
  std::vector<int> work_of(n, -1);
  for (const auto& [t, s] : p2p_pairs) {
    if (work_of[t] < 0) {
      work_of[t] = static_cast<int>(out.p2p.size());
      out.p2p.push_back({t, {}, 0});
    }
    out.p2p[work_of[t]].sources.push_back(s);
  }
  count_p2p_interactions(tree, out);
  return out;
}

void count_p2p_interactions(const AdaptiveOctree& tree,
                            InteractionLists& lists) {
  lists.total_p2p_interactions = 0;
  for (auto& w : lists.p2p) {
    std::uint64_t srcs = 0;
    for (int s : w.sources) srcs += tree.node(s).count;
    w.interactions =
        static_cast<std::uint64_t>(tree.node(w.target).count) * srcs;
    lists.total_p2p_interactions += w.interactions;
  }
}

OpCounts count_operations(const AdaptiveOctree& tree,
                          const InteractionLists& lists) {
  OpCounts c;
  if (!tree.empty()) count_walk(tree, tree.root(), c);

  c.m2l = lists.total_m2l_pairs;
  c.p2p_interactions = lists.total_p2p_interactions;
  for (const auto& w : lists.p2p) c.p2p_node_pairs += w.sources.size();
  return c;
}

namespace {
template <typename Op>
void for_each_field(OpCounts& a, const OpCounts& b, Op op) {
  op(a.p2m, b.p2m);
  op(a.p2m_bodies, b.p2m_bodies);
  op(a.m2m, b.m2m);
  op(a.m2l, b.m2l);
  op(a.l2l, b.l2l);
  op(a.l2p, b.l2p);
  op(a.l2p_bodies, b.l2p_bodies);
  op(a.p2p_interactions, b.p2p_interactions);
  op(a.p2p_node_pairs, b.p2p_node_pairs);
}
}  // namespace

OpCounts& operator+=(OpCounts& a, const OpCounts& b) {
  for_each_field(a, b, [](std::uint64_t& x, std::uint64_t y) { x += y; });
  return a;
}

OpCounts& operator-=(OpCounts& a, const OpCounts& b) {
  for_each_field(a, b, [](std::uint64_t& x, std::uint64_t y) { x -= y; });
  return a;
}

OpCounts count_operations_touching(const AdaptiveOctree& tree,
                                   std::span<const int> roots,
                                   const TraversalConfig& config) {
  OpCounts c;
  if (tree.empty() || roots.empty()) return c;

  const int n = tree.num_nodes();
  // marked[i]: i is one of the roots. reaches[i]: i is a root or an ancestor
  // of one (i.e. the subtree under i contains a root). Descendants of roots
  // are recognized by flag propagation during the walks.
  std::vector<char> marked(n, 0);
  std::vector<char> reaches(n, 0);
  for (int r : roots) marked[r] = 1;
  for (int r : roots)
    for (int id = r; id >= 0 && !reaches[id]; id = tree.node(id).parent)
      reaches[id] = 1;

  // Tree-walk terms inside each modified subtree. The M2M/L2L edge from a
  // root's parent down to the root is excluded: the root's body count is
  // unchanged by collapse/push_down, so that edge contributes identically to
  // the before and after counts and cancels in the delta.
  for (int r : roots) count_walk(tree, r, c);

  // Pair terms: replay the dual traversal, pruning branch pairs that cannot
  // touch a modified subtree and counting only pairs that do. The recursion
  // rule is a function of the tree alone, so the pairs counted here are
  // exactly the full traversal's pairs with at least one side in a modified
  // subtree.
  auto dual = [&](auto&& self, int ta, int sb, bool ain, bool bin) -> void {
    ain = ain || marked[ta];
    bin = bin || marked[sb];
    if (!ain && !bin && !reaches[ta] && !reaches[sb]) return;
    const OctreeNode& a = tree.node(ta);
    const OctreeNode& b = tree.node(sb);
    if (a.count == 0 || b.count == 0) return;
    const bool touch = ain || bin;
    if (well_separated(a, b, config.theta)) {
      if (touch) ++c.m2l;
      return;
    }
    const bool la = tree.is_effective_leaf(ta);
    const bool lb = tree.is_effective_leaf(sb);
    if (la && lb) {
      if (touch) {
        ++c.p2p_node_pairs;
        c.p2p_interactions += static_cast<std::uint64_t>(a.count) * b.count;
      }
      return;
    }
    if (lb || (!la && a.half >= b.half)) {
      for (int ch : a.children) self(self, ch, sb, ain, bin);
    } else {
      for (int ch : b.children) self(self, ta, ch, ain, bin);
    }
  };
  dual(dual, tree.root(), tree.root(), false, false);
  return c;
}

}  // namespace afmm
