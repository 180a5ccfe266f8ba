#include "octree/traversal.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace afmm {

namespace {
constexpr double kSqrt3 = 1.7320508075688772;

// The split hands out pair subproblems whose smaller side holds at most this
// many bodies; each is walked serially by one thread.
constexpr std::uint32_t kSplitCutoff = 4096;

bool well_separated(const OctreeNode& a, const OctreeNode& b, double theta) {
  const double ra = a.half * kSqrt3;
  const double rb = b.half * kSqrt3;
  const double s = (ra + rb) / theta;
  return norm2(a.center - b.center) > s * s;
}

using PairStream = std::vector<std::pair<int, int>>;

// The traversal's one recursion rule, depth first from (ta, sb). Empty pairs
// end unless kCountBlind; v.settled(m2l, ta, sb) receives each
// well-separated (M2L) and leaf-leaf (P2P) pair; any other pair descends
// into the larger box (target preferred on ties) so both sides shrink
// evenly, which keeps list sizes bounded for adaptive trees -- unless
// v.open(ta, sb) returns false.
template <bool kCountBlind = false, class Visitor>
void dual_walk(const AdaptiveOctree& tree, double theta, int ta, int sb,
               Visitor& v) {
  const OctreeNode& a = tree.node(ta);
  const OctreeNode& b = tree.node(sb);
  if (!kCountBlind && (a.count == 0 || b.count == 0)) return;
  if (well_separated(a, b, theta)) return v.settled(true, ta, sb);
  const bool la = tree.is_effective_leaf(ta);
  const bool lb = tree.is_effective_leaf(sb);
  if (la && lb) return v.settled(false, ta, sb);
  if (!v.open(ta, sb)) return;
  if (lb || (!la && a.half >= b.half)) {
    for (int ch : a.children) dual_walk<kCountBlind>(tree, theta, ch, sb, v);
  } else {
    for (int ch : b.children) dual_walk<kCountBlind>(tree, theta, ta, ch, v);
  }
}

// Collects one walk's flat (target, source) pair streams.
struct PairBufs {
  WalkedPairs pairs;
  void settled(bool is_m2l, int ta, int sb) {
    (is_m2l ? pairs.m2l : pairs.p2p).emplace_back(ta, sb);
  }
  bool open(int, int) { return true; }
};

// Cuts the walk into independent subproblems, in depth-first order: every
// pair the walk settles at once and every pair whose smaller side is light.
struct Splitter {
  const AdaptiveOctree& tree;
  PairStream parts;
  void settled(bool, int ta, int sb) { parts.emplace_back(ta, sb); }
  bool open(int ta, int sb) {
    if (std::min(tree.node(ta).count, tree.node(sb).count) > kSplitCutoff)
      return true;
    parts.emplace_back(ta, sb);
    return false;
  }
};

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

// Splits the walk serially, then walks the parts in parallel. Each part
// fills a buffer local to its thread before moving into its own slot:
// threads pushing into adjacent slots would share cache lines. Reading the
// slots in split order gives the serial walk's pair streams exactly, so the
// counts steer only how the work is shared.
template <bool kCountBlind>
std::vector<WalkedPairs> walk_parts(const AdaptiveOctree& tree,
                                    double theta) {
  Splitter split{tree, {}};
  dual_walk<kCountBlind>(tree, theta, tree.root(), tree.root(), split);
  const auto& parts = split.parts;
  std::vector<WalkedPairs> walked(parts.size());
  if (parts.size() < 2) {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      PairBufs bufs;
      dual_walk<kCountBlind>(tree, theta, parts[i].first, parts[i].second,
                             bufs);
      walked[i] = std::move(bufs.pairs);
    }
  } else {
#pragma omp parallel
    {
      PairBufs local;
#pragma omp for schedule(dynamic)
      for (std::size_t i = 0; i < parts.size(); ++i) {
        dual_walk<kCountBlind>(tree, theta, parts[i].first, parts[i].second,
                               local);
        walked[i] = std::exchange(local.pairs, {});
      }
    }
  }
  return walked;
}

// The one grouping of a walk's pairs into lists: M2L pairs into CSR by
// target, P2P pairs into per-target items in order of first appearance,
// reading the parts in order. Pairs for which keep(t, s) is false are left
// out.
template <class Keep>
InteractionLists group_pairs(const AdaptiveOctree& tree,
                             std::span<const WalkedPairs> parts, Keep keep) {
  auto for_each_pair = [&](PairStream WalkedPairs::*stream, auto&& fn) {
    for (const WalkedPairs& w : parts)
      for (const auto& [t, s] : w.*stream)
        if (keep(t, s)) fn(t, s);
  };

  InteractionLists out;
  const int n = tree.num_nodes();
  out.m2l_offset.assign(n + 1, 0);
  for_each_pair(&WalkedPairs::m2l,
                [&](int t, int) { ++out.m2l_offset[t + 1]; });
  for (int i = 0; i < n; ++i) out.m2l_offset[i + 1] += out.m2l_offset[i];
  out.total_m2l_pairs = out.m2l_offset[n];
  out.m2l_sources.resize(out.total_m2l_pairs);
  std::vector<std::uint32_t> cursor(out.m2l_offset.begin(),
                                    out.m2l_offset.end() - 1);
  for_each_pair(&WalkedPairs::m2l,
                [&](int t, int s) { out.m2l_sources[cursor[t]++] = s; });

  std::vector<int> work_of(n, -1);
  for_each_pair(&WalkedPairs::p2p, [&](int t, int s) {
    if (work_of[t] < 0) {
      work_of[t] = static_cast<int>(out.p2p.size());
      out.p2p.push_back({t, {}, 0});
    }
    out.p2p[work_of[t]].sources.push_back(s);
  });
  count_p2p_interactions(tree, out);
  return out;
}
}  // namespace

InteractionLists build_interaction_lists(const AdaptiveOctree& tree,
                                         const TraversalConfig& config) {
  if (tree.empty()) return {};
  return group_pairs(tree, walk_parts<false>(tree, config.theta),
                     [](int, int) { return true; });
}

void walk_count_blind(const AdaptiveOctree& tree,
                      const TraversalConfig& config, WalkedPairs& all) {
  all.m2l.clear();
  all.p2p.clear();
  if (tree.empty()) return;
  // Concatenated once, because one flat stream re-filters faster than the
  // scattered parts, and a structure is re-filtered many times.
  std::vector<WalkedPairs> parts = walk_parts<true>(tree, config.theta);
  std::size_t m2l = 0, p2p = 0;
  for (const WalkedPairs& w : parts) {
    m2l += w.m2l.size();
    p2p += w.p2p.size();
  }
  all.m2l.reserve(m2l);
  all.p2p.reserve(p2p);
  for (WalkedPairs& w : parts) {
    all.m2l.insert(all.m2l.end(), w.m2l.begin(), w.m2l.end());
    all.p2p.insert(all.p2p.end(), w.p2p.begin(), w.p2p.end());
    w = {};
  }
}

InteractionLists filter_interaction_lists(const AdaptiveOctree& tree,
                                          const WalkedPairs& all,
                                          std::span<const char> empty) {
  if (tree.empty()) return {};
  return group_pairs(tree, {&all, 1},
                     [&](int t, int s) { return !(empty[t] | empty[s]); });
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
  // inside[i]: i lies in the effective subtree of a root. reaches[i]: i is a
  // root or an ancestor of one (i.e. the subtree under i contains a root).
  std::vector<char> inside(n, 0);
  std::vector<char> reaches(n, 0);
  auto mark = [&](auto&& self, int id) -> void {
    inside[id] = 1;
    if (!tree.is_effective_leaf(id))
      for (int ch : tree.node(id).children) self(self, ch);
  };
  for (int r : roots) {
    mark(mark, r);
    for (int id = r; id >= 0 && !reaches[id]; id = tree.node(id).parent)
      reaches[id] = 1;
  }

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
  struct Touching {
    const AdaptiveOctree& tree;
    const std::vector<char>& inside;
    const std::vector<char>& reaches;
    OpCounts& c;
    void settled(bool m2l, int ta, int sb) {
      if (!inside[ta] && !inside[sb]) return;
      if (m2l) {
        ++c.m2l;
        return;
      }
      ++c.p2p_node_pairs;
      c.p2p_interactions +=
          static_cast<std::uint64_t>(tree.node(ta).count) * tree.node(sb).count;
    }
    bool open(int ta, int sb) {
      return inside[ta] || inside[sb] || reaches[ta] || reaches[sb];
    }
  } touching{tree, inside, reaches, c};
  dual_walk(tree, config.theta, tree.root(), tree.root(), touching);
  return c;
}

}  // namespace afmm
