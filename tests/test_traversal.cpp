#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "octree/octree.hpp"
#include "octree/traversal.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

std::vector<Vec3> random_points(Rng& rng, int n) {
  std::vector<Vec3> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  return pts;
}

TreeConfig unit_config(int S) {
  TreeConfig tc;
  tc.leaf_capacity = S;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  return tc;
}

// Marks, for every ordered body pair (t, s), whether it is covered by P2P or
// by an M2L ancestor relation; each pair must be covered EXACTLY once. This
// is the completeness invariant of the dual traversal: together the near and
// far lists tile the full N^2 interaction matrix.
void check_pair_coverage(const AdaptiveOctree& tree,
                         const InteractionLists& lists, int n) {
  std::vector<int> cover(static_cast<std::size_t>(n) * n, 0);
  const auto perm = tree.perm();

  // Bodies under a node, by tree order span.
  auto bodies_of = [&](int id) {
    const auto& nd = tree.node(id);
    std::vector<int> out;
    for (std::uint32_t b = nd.begin; b < nd.begin + nd.count; ++b)
      out.push_back(static_cast<int>(perm[b]));
    return out;
  };

  for (int t = 0; t < tree.num_nodes(); ++t) {
    for (std::uint32_t e = lists.m2l_offset[t]; e < lists.m2l_offset[t + 1];
         ++e) {
      for (int bt : bodies_of(t))
        for (int bs : bodies_of(lists.m2l_sources[e]))
          ++cover[static_cast<std::size_t>(bt) * n + bs];
    }
  }
  for (const auto& w : lists.p2p)
    for (int src : w.sources)
      for (int bt : bodies_of(w.target))
        for (int bs : bodies_of(src))
          ++cover[static_cast<std::size_t>(bt) * n + bs];

  for (int t = 0; t < n; ++t)
    for (int s = 0; s < n; ++s) {
      if (t == s) continue;  // self pairs live in the P2P self relation
      EXPECT_EQ(cover[static_cast<std::size_t>(t) * n + s], 1)
          << "pair (" << t << "," << s << ")";
    }
}

class TraversalCoverage : public ::testing::TestWithParam<int> {};

TEST_P(TraversalCoverage, EveryOrderedPairCoveredExactlyOnce) {
  const int S = GetParam();
  Rng rng(S);
  const int n = 300;
  const auto pts = random_points(rng, n);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(S));
  const auto lists = build_interaction_lists(tree);
  check_pair_coverage(tree, lists, n);
}

INSTANTIATE_TEST_SUITE_P(LeafCapacities, TraversalCoverage,
                         ::testing::Values(1, 4, 16, 64, 300));

TEST(Traversal, CoverageHoldsAfterCollapseAndPushDown) {
  Rng rng(77);
  const int n = 250;
  const auto pts = random_points(rng, n);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(8));

  // Collapse a few bottom parents and push a couple of leaves down; the
  // lists on the modified effective tree must still tile N^2.
  int collapsed = 0;
  for (int id = 0; id < tree.num_nodes() && collapsed < 3; ++id) {
    if (tree.is_effective_leaf(id)) continue;
    bool bottom = true;
    for (int c : tree.node(id).children)
      if (!tree.is_effective_leaf(c)) bottom = false;
    if (bottom) {
      tree.collapse(id);
      ++collapsed;
    }
  }
  ASSERT_GT(collapsed, 0);
  int pushed = 0;
  for (int leaf : tree.effective_leaves()) {
    if (tree.node(leaf).count >= 4 && pushed < 2) {
      tree.push_down(leaf);
      ++pushed;
    }
  }
  const auto lists = build_interaction_lists(tree);
  check_pair_coverage(tree, lists, n);
}

TEST(Traversal, MacRespectedByM2LPairs) {
  Rng rng(5);
  const auto pts = random_points(rng, 2000);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(16));
  TraversalConfig cfg;
  cfg.theta = 0.6;
  const auto lists = build_interaction_lists(tree, cfg);
  const double kSqrt3 = std::sqrt(3.0);
  for (int t = 0; t < tree.num_nodes(); ++t) {
    for (std::uint32_t e = lists.m2l_offset[t]; e < lists.m2l_offset[t + 1];
         ++e) {
      const auto& a = tree.node(t);
      const auto& b = tree.node(lists.m2l_sources[e]);
      const double d = norm(a.center - b.center);
      EXPECT_GT(d, (a.half + b.half) * kSqrt3 / cfg.theta * 0.999);
    }
  }
}

TEST(Traversal, SmallerThetaMeansMoreNearField) {
  Rng rng(6);
  const auto pts = random_points(rng, 3000);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(32));
  TraversalConfig tight;
  tight.theta = 0.4;
  TraversalConfig loose;
  loose.theta = 0.8;
  const auto lt = build_interaction_lists(tree, tight);
  const auto ll = build_interaction_lists(tree, loose);
  EXPECT_GT(lt.total_p2p_interactions, ll.total_p2p_interactions);
}

TEST(Traversal, LargerSShiftsWorkTowardP2P) {
  // The load-balancing lever of the whole paper: raising S moves work from
  // the far field (M2L pairs) to the near field (P2P interactions).
  Rng rng(7);
  const auto pts = random_points(rng, 8000);
  std::uint64_t prev_p2p = 0;
  std::uint64_t prev_m2l = ~0ull;
  for (int S : {8, 32, 128, 512}) {
    AdaptiveOctree tree;
    tree.build(pts, unit_config(S));
    const auto lists = build_interaction_lists(tree);
    EXPECT_GT(lists.total_p2p_interactions, prev_p2p) << "S=" << S;
    EXPECT_LT(lists.total_m2l_pairs, prev_m2l) << "S=" << S;
    prev_p2p = lists.total_p2p_interactions;
    prev_m2l = lists.total_m2l_pairs;
  }
}

TEST(Traversal, SelfPairPresentForEveryNonemptyLeaf) {
  Rng rng(8);
  const auto pts = random_points(rng, 500);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(20));
  const auto lists = build_interaction_lists(tree);
  for (const auto& w : lists.p2p) {
    if (tree.node(w.target).count == 0) continue;
    EXPECT_NE(std::find(w.sources.begin(), w.sources.end(), w.target),
              w.sources.end())
        << "leaf " << w.target << " misses its self interaction";
  }
}

TEST(Traversal, InteractionCountsMatchDefinition) {
  Rng rng(9);
  const auto pts = random_points(rng, 700);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(25));
  const auto lists = build_interaction_lists(tree);
  std::uint64_t total = 0;
  for (const auto& w : lists.p2p) {
    std::uint64_t s = 0;
    for (int src : w.sources) s += tree.node(src).count;
    EXPECT_EQ(w.interactions, tree.node(w.target).count * s);
    total += w.interactions;
  }
  EXPECT_EQ(total, lists.total_p2p_interactions);
}

TEST(Traversal, EmptyTreeYieldsEmptyLists) {
  AdaptiveOctree tree;
  std::vector<Vec3> none;
  tree.build(none, unit_config(8));
  const auto lists = build_interaction_lists(tree);
  EXPECT_EQ(lists.total_m2l_pairs, 0u);
  EXPECT_TRUE(lists.p2p.empty());
}

TEST(Traversal, SingleLeafIsOneSelfP2P) {
  Rng rng(10);
  const auto pts = random_points(rng, 10);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(100));
  const auto lists = build_interaction_lists(tree);
  EXPECT_EQ(lists.total_m2l_pairs, 0u);
  ASSERT_EQ(lists.p2p.size(), 1u);
  EXPECT_EQ(lists.p2p[0].interactions, 100u);
}

TEST(Traversal, OpCountsConsistent) {
  Rng rng(11);
  const auto pts = random_points(rng, 2000);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(30));
  const auto lists = build_interaction_lists(tree);
  const auto c = count_operations(tree, lists);

  int leaves = 0;
  std::uint64_t bodies = 0;
  for (int leaf : tree.effective_leaves()) {
    if (tree.node(leaf).count == 0) continue;
    ++leaves;
    bodies += tree.node(leaf).count;
  }
  EXPECT_EQ(c.p2m, static_cast<std::uint64_t>(leaves));
  EXPECT_EQ(c.l2p, static_cast<std::uint64_t>(leaves));
  EXPECT_EQ(c.p2m_bodies, bodies);
  EXPECT_EQ(c.p2m_bodies, 2000u);
  EXPECT_EQ(c.m2l, lists.total_m2l_pairs);
  EXPECT_EQ(c.m2m, c.l2l);
  EXPECT_EQ(c.p2p_interactions, lists.total_p2p_interactions);
}

}  // namespace
}  // namespace afmm
