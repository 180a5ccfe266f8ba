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

// (target, source) node pairs that a walk settles, each stream in walk
// order.
struct WalkedPairs {
  PairStream m2l, p2p;
};

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

// The one grouping of a walk's pairs, reading the parts in order: M2L pairs
// into CSR rows by target, P2P pairs into rows in order of their target's
// first pair, each pair with its index in the P2P stream. `rows` keeps its
// storage.
void group_pairs(const AdaptiveOctree& tree,
                 std::span<const WalkedPairs> parts, PairRows& rows) {
  const int n = tree.num_nodes();
  rows.m2l_offset.assign(n + 1, 0);
  for (const WalkedPairs& w : parts)
    for (const auto& [t, s] : w.m2l) ++rows.m2l_offset[t + 1];
  for (int i = 0; i < n; ++i) rows.m2l_offset[i + 1] += rows.m2l_offset[i];
  rows.m2l_sources.resize(rows.m2l_offset[n]);
  std::vector<std::uint32_t> cursor(rows.m2l_offset.begin(),
                                    rows.m2l_offset.end() - 1);
  for (const WalkedPairs& w : parts)
    for (const auto& [t, s] : w.m2l) rows.m2l_sources[cursor[t]++] = s;

  std::vector<int> row_of(n, -1);
  rows.p2p_target.clear();
  rows.p2p_offset.assign(1, 0);
  for (const WalkedPairs& w : parts)
    for (const auto& [t, s] : w.p2p) {
      if (row_of[t] < 0) {
        row_of[t] = static_cast<int>(rows.p2p_target.size());
        rows.p2p_target.push_back(t);
        rows.p2p_offset.push_back(0);
      }
      ++rows.p2p_offset[row_of[t] + 1];
    }
  const std::size_t nrows = rows.p2p_target.size();
  for (std::size_t r = 0; r < nrows; ++r)
    rows.p2p_offset[r + 1] += rows.p2p_offset[r];
  rows.p2p_sources.resize(rows.p2p_offset[nrows]);
  rows.p2p_walk_index.resize(rows.p2p_offset[nrows]);
  cursor.assign(rows.p2p_offset.begin(), rows.p2p_offset.end() - 1);
  std::uint32_t walk_index = 0;
  for (const WalkedPairs& w : parts)
    for (const auto& [t, s] : w.p2p) {
      const std::uint32_t at = cursor[row_of[t]]++;
      rows.p2p_sources[at] = s;
      rows.p2p_walk_index[at] = walk_index++;
    }
}

// Row sets of at most this many pairs re-filter with no parallel region.
constexpr std::size_t kSerialFilterPairs = 16384;

// One re-filter of count-blind rows into lists. run() holds orphaned
// worksharing loops: every thread of a team calls it, or the calling thread
// alone with no parallel region. The loops take rows in parallel; the
// prefix sum, the item order and the items' allocations run on the calling
// thread in between.
class RowFilter {
 public:
  RowFilter(const AdaptiveOctree& tree, const PairRows& rows,
            std::span<const char> empty, InteractionLists& out)
      : tree_(tree), rows_(rows), empty_(empty), out_(out),
        kept_(rows.p2p_target.size()), first_(rows.p2p_target.size()) {}

  void run() {
    const int n = tree_.num_nodes();
    const int nrows = static_cast<int>(rows_.p2p_target.size());
#pragma omp for schedule(static) nowait
    for (int t = 0; t < n; ++t) count_m2l_row(t);
#pragma omp for schedule(static)
    for (int r = 0; r < nrows; ++r) count_p2p_row(r);
#pragma omp masked
    order_and_allocate();
#pragma omp barrier
#pragma omp for schedule(static) nowait
    for (int t = 0; t < n; ++t) copy_m2l_row(t);
    const int items = static_cast<int>(items_.size());
#pragma omp for schedule(dynamic, 16)
    for (int i = 0; i < items; ++i) fill_item(i);
  }

 private:
  // Writes the row's kept count where the prefix sum turns it into its end.
  void count_m2l_row(int t) {
    std::uint32_t count = 0;
    if (!empty_[t])
      for (std::uint32_t i = rows_.m2l_offset[t]; i < rows_.m2l_offset[t + 1];
           ++i)
        count += !empty_[rows_.m2l_sources[i]];
    out_.m2l_offset[t + 1] = count;
  }

  void copy_m2l_row(int t) {
    if (empty_[t]) return;
    int* to = out_.m2l_sources.data() + out_.m2l_offset[t];
    for (std::uint32_t i = rows_.m2l_offset[t]; i < rows_.m2l_offset[t + 1];
         ++i)
      if (!empty_[rows_.m2l_sources[i]]) *to++ = rows_.m2l_sources[i];
  }

  // A P2P row's kept pairs and the walk index of its first one.
  void count_p2p_row(int r) {
    kept_[r] = 0;
    if (empty_[rows_.p2p_target[r]]) return;
    for (std::uint32_t i = rows_.p2p_offset[r]; i < rows_.p2p_offset[r + 1];
         ++i)
      if (!empty_[rows_.p2p_sources[i]] && kept_[r]++ == 0)
        first_[r] = rows_.p2p_walk_index[i];
  }

  // M2L offsets by prefix sum; P2P items in order of their first kept pair.
  void order_and_allocate() {
    const std::size_t n = out_.m2l_offset.size() - 1;
    out_.m2l_offset[0] = 0;
    for (std::size_t t = 0; t < n; ++t)
      out_.m2l_offset[t + 1] += out_.m2l_offset[t];
    out_.m2l_sources.resize(out_.m2l_offset[n]);

    items_.clear();
    for (std::size_t r = 0; r < kept_.size(); ++r)
      if (kept_[r] > 0) items_.push_back(static_cast<int>(r));
    std::sort(items_.begin(), items_.end(),
              [&](int a, int b) { return first_[a] < first_[b]; });
    out_.p2p.resize(items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i) {
      P2PWork& w = out_.p2p[i];
      w.target = rows_.p2p_target[items_[i]];
      w.sources.clear();
      w.sources.resize(kept_[items_[i]]);
    }
  }

  void fill_item(int i) {
    const int r = items_[i];
    P2PWork& w = out_.p2p[i];
    int* to = w.sources.data();
    std::uint64_t bodies = 0;
    for (std::uint32_t k = rows_.p2p_offset[r]; k < rows_.p2p_offset[r + 1];
         ++k) {
      const int s = rows_.p2p_sources[k];
      if (empty_[s]) continue;
      *to++ = s;
      bodies += tree_.node(s).count;
    }
    w.interactions = tree_.node(w.target).count * bodies;
  }

  const AdaptiveOctree& tree_;
  const PairRows& rows_;
  std::span<const char> empty_;
  InteractionLists& out_;
  std::vector<std::uint32_t> kept_;   // per P2P row
  std::vector<std::uint32_t> first_;  // per P2P row with kept pairs
  std::vector<int> items_;            // P2P rows with kept pairs, in order
};
}  // namespace

InteractionLists build_interaction_lists(const AdaptiveOctree& tree,
                                         const TraversalConfig& config) {
  if (tree.empty()) return {};
  PairRows rows;
  group_pairs(tree, walk_parts<false>(tree, config.theta), rows);
  InteractionLists out;
  out.total_m2l_pairs = rows.m2l_sources.size();
  out.m2l_offset = std::move(rows.m2l_offset);
  out.m2l_sources = std::move(rows.m2l_sources);
  out.p2p.resize(rows.p2p_target.size());
  for (std::size_t r = 0; r < out.p2p.size(); ++r)
    out.p2p[r] = {rows.p2p_target[r],
                  {rows.p2p_sources.begin() + rows.p2p_offset[r],
                   rows.p2p_sources.begin() + rows.p2p_offset[r + 1]},
                  0};
  count_p2p_interactions(tree, out);
  return out;
}

void walk_count_blind(const AdaptiveOctree& tree,
                      const TraversalConfig& config, PairRows& rows) {
  if (tree.empty()) {
    rows = {};
    return;
  }
  group_pairs(tree, walk_parts<true>(tree, config.theta), rows);
}

void filter_interaction_lists(const AdaptiveOctree& tree,
                              const PairRows& rows,
                              std::span<const char> empty,
                              InteractionLists& out) {
  if (tree.empty()) {
    out = {};
    return;
  }
  out.m2l_offset.resize(static_cast<std::size_t>(tree.num_nodes()) + 1);
  RowFilter filter(tree, rows, empty, out);
  if (rows.m2l_sources.size() + rows.p2p_sources.size() > kSerialFilterPairs) {
#pragma omp parallel
    filter.run();
  } else {
    filter.run();
  }
  out.total_m2l_pairs = out.m2l_offset.back();
  out.total_p2p_interactions = 0;
  for (const P2PWork& w : out.p2p) out.total_p2p_interactions += w.interactions;
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
