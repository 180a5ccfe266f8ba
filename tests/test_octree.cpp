#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "dist/distributions.hpp"
#include "octree/octree.hpp"
#include "omp_threads.hpp"
#include "state/auditor.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

std::vector<Vec3> random_points(Rng& rng, int n, const Vec3& c, double half) {
  std::vector<Vec3> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back(c + Vec3{rng.uniform(-half, half), rng.uniform(-half, half),
                           rng.uniform(-half, half)});
  return pts;
}

// The structural invariants (spans, parent/child links, geometry, the
// permutation) hold; a violation fails the test with the auditor's message.
void expect_valid(const AdaptiveOctree& tree) {
  AuditReport report;
  audit_tree(tree, 0, 0.0, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TreeConfig unit_config(int S) {
  TreeConfig tc;
  tc.leaf_capacity = S;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  return tc;
}

// Every body must lie inside the box of every effective leaf that claims it
// right after a build.
void expect_geometric_containment(const AdaptiveOctree& tree) {
  const auto pos = tree.sorted_positions();
  for (int leaf : tree.effective_leaves()) {
    const auto& n = tree.node(leaf);
    for (std::uint32_t b = n.begin; b < n.begin + n.count; ++b)
      for (int d = 0; d < 3; ++d) {
        EXPECT_GE(pos[b][d], n.center[d] - n.half - 1e-12);
        EXPECT_LE(pos[b][d], n.center[d] + n.half + 1e-12);
      }
  }
}

struct BuildCase {
  int n;
  int s;
  int threads;
};

class OctreeBuild : public ::testing::TestWithParam<BuildCase> {};

TEST_P(OctreeBuild, InvariantsAndLeafCapacity) {
  const auto [n, s, threads] = GetParam();
  OmpThreads team(threads);
  Rng rng(n * 31 + s);
  const auto pts = random_points(rng, n, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(s));
  expect_valid(tree);

  // Build subdivides while count > S, so every effective leaf is <= S (the
  // max-depth escape hatch cannot trigger for uniform points at these sizes).
  for (int leaf : tree.effective_leaves())
    EXPECT_LE(tree.node(leaf).count, static_cast<std::uint32_t>(s));

  // Leaves partition the bodies.
  std::uint64_t total = 0;
  for (int leaf : tree.effective_leaves()) total += tree.node(leaf).count;
  EXPECT_EQ(total, static_cast<std::uint64_t>(n));

  expect_geometric_containment(tree);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OctreeBuild,
    ::testing::Values(BuildCase{0, 8, 1}, BuildCase{1, 8, 1},
                      BuildCase{7, 8, 1}, BuildCase{100, 8, 1},
                      BuildCase{1000, 16, 1}, BuildCase{5000, 16, 1},
                      BuildCase{5000, 64, 1}, BuildCase{5000, 1, 1},
                      BuildCase{5000, 16, 4}, BuildCase{20000, 32, 4}));

TEST(Octree, ParallelAndSerialBuildsAgree) {
  Rng rng(5);
  const auto pts = random_points(rng, 8000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree a, b;
  {
    OmpThreads serial(1);
    a.build(pts, unit_config(24));
  }
  {
    OmpThreads parallel(4);
    b.build(pts, unit_config(24));
  }
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (int i = 0; i < a.num_nodes(); ++i) {
    EXPECT_EQ(a.node(i).begin, b.node(i).begin);
    EXPECT_EQ(a.node(i).count, b.node(i).count);
    EXPECT_EQ(a.node(i).level, b.node(i).level);
    EXPECT_EQ(a.node(i).center, b.node(i).center);
  }
}

TEST(Octree, ClusteredDistributionGoesDeep) {
  Rng rng(6);
  // Tight cluster: adaptive depth must exceed the uniform depth for the
  // same S by a wide margin.
  auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.001);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(16));
  expect_valid(tree);
  EXPECT_GE(tree.effective_depth(), 9);
}

TEST(Octree, MaxDepthCapsRecursion) {
  // All points identical: subdivision can never separate them, so the tree
  // must stop at max_depth with an over-full leaf.
  std::vector<Vec3> pts(100, Vec3{0.5, 0.5, 0.5});
  AdaptiveOctree tree;
  auto tc = unit_config(4);
  tc.max_depth = 6;
  tree.build(pts, tc);
  expect_valid(tree);
  EXPECT_LE(tree.effective_depth(), 6);
  EXPECT_EQ(tree.max_leaf_count(), 100);
}

TEST(Octree, MaxDepthOutsideZeroToTwentyOneThrows) {
  Rng rng(22);
  const auto pts = random_points(rng, 10, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  auto tc = unit_config(8);
  for (int bad : {-1, 22}) {
    tc.max_depth = bad;
    EXPECT_THROW(tree.build(pts, tc), std::invalid_argument);
    EXPECT_THROW(tree.build_uniform(pts, tc, 0), std::invalid_argument);
  }
}

TEST(Octree, MaxDepthTwentyOneBuilds) {
  // A cluster far smaller than a level-21 cell keeps splitting until the cap.
  Rng rng(3);
  const auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 1e-8);
  AdaptiveOctree tree;
  auto tc = unit_config(2);
  tc.max_depth = 21;
  tree.build(pts, tc);
  expect_valid(tree);
  EXPECT_EQ(tree.effective_depth(), 21);
}

TEST(Octree, BuildUniformRejectsDepthAboveMaxDepth) {
  std::vector<Vec3> pts = {{0.25, 0.25, 0.25}, {0.75, 0.75, 0.75}};
  auto tc = unit_config(8);
  tc.max_depth = 3;
  AdaptiveOctree tree;
  tree.build_uniform(pts, tc, 3);
  expect_valid(tree);
  EXPECT_EQ(tree.effective_depth(), 3);
  EXPECT_THROW(tree.build_uniform(pts, tc, 4), std::invalid_argument);
  EXPECT_THROW(tree.build_uniform(pts, tc, -1), std::invalid_argument);
}

TEST(Octree, NonFinitePositionsStillBuild) {
  // The resilience loop rebuilds from fault-corrupted positions and relies
  // on the auditor, not the builder, to reject them. NaN compares false, so
  // it descends to the low octant at every level.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(11);
  auto pts = random_points(rng, 500, {0.5, 0.5, 0.5}, 0.5);
  pts[31].y = nan;
  pts[77] = {nan, nan, nan};
  pts[123].z = inf;
  pts[200].x = -inf;
  auto tc = unit_config(8);
  tc.max_depth = 8;  // NaNs co-locate at the low corner; cap the recursion
  AdaptiveOctree tree;
  tree.build(pts, tc);
  expect_valid(tree);
  EXPECT_EQ(tree.num_bodies(), pts.size());

  // The all-NaN body sits in the all-low octant chain down to its leaf.
  int at = tree.root();
  while (!tree.is_effective_leaf(at)) at = tree.node(at).children[0];
  const auto& leaf = tree.node(at);
  const auto perm = tree.perm();
  EXPECT_NE(std::find(perm.begin() + leaf.begin,
                      perm.begin() + leaf.begin + leaf.count, 77u),
            perm.begin() + leaf.begin + leaf.count);
}

TEST(Octree, BodiesOnSplittingPlanesGoToUpperOctant) {
  // `p >= center` goes up: a body exactly on the root's splitting planes
  // lands in octant 7, and one on a single plane lands above that plane.
  const std::vector<Vec3> pts = {{0.5, 0.5, 0.5},
                                 {0.5, 0.25, 0.25},
                                 {0.25, 0.5, 0.25},
                                 {0.25, 0.25, 0.5},
                                 {0.25, 0.25, 0.25}};
  AdaptiveOctree tree;
  tree.build(pts, unit_config(1));
  expect_valid(tree);
  const auto& root = tree.node(tree.root());
  ASSERT_TRUE(root.has_children);
  const int expected_octant[] = {7, 1, 2, 4, 0};
  const auto perm = tree.perm();
  for (int o = 0; o < 8; ++o) {
    const auto& c = tree.node(root.children[o]);
    for (std::uint32_t t = c.begin; t < c.begin + c.count; ++t)
      EXPECT_EQ(expected_octant[perm[t]], o) << "body " << perm[t];
  }
}

TEST(Octree, CollapseRebinPushDownRepartitionsStaleSpans) {
  // collapse hides children, a rebin moves bodies inside the collapsed span
  // (the hidden spans go stale), and push_down must reclaim the hidden
  // children and repartition them against the moved bodies.
  Rng rng(41);
  auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(32));

  std::vector<int> collapsed;
  for (int leaf : tree.effective_leaves()) {
    const int parent = tree.node(leaf).parent;
    if (parent >= 0 && !tree.is_effective_leaf(parent)) {
      tree.collapse(parent);
      collapsed.push_back(parent);
    }
  }
  ASSERT_FALSE(collapsed.empty());

  for (auto& p : pts)
    for (int d = 0; d < 3; ++d)
      p[d] = std::clamp(p[d] + rng.uniform(-0.02, 0.02), 0.001, 0.999);
  tree.rebin(pts);
  expect_valid(tree);

  // Only collapsed nodes reachable in the effective tree are eligible: a
  // node hidden beneath another collapse has a stale span by design.
  const int nodes_before = tree.num_nodes();
  std::vector<int> pushed;
  for (int id : tree.effective_leaves())
    if (tree.node(id).collapsed && tree.push_down(id)) pushed.push_back(id);
  ASSERT_FALSE(pushed.empty());
  EXPECT_EQ(tree.num_nodes(), nodes_before);  // reclaimed, not reallocated
  expect_valid(tree);

  const auto sorted = tree.sorted_positions();
  for (int id : pushed)
    for (int c : tree.node(id).children) {
      const auto& n = tree.node(c);
      for (std::uint32_t b = n.begin; b < n.begin + n.count; ++b)
        for (int d = 0; d < 3; ++d) {
          EXPECT_GE(sorted[b][d], n.center[d] - n.half - 1e-12);
          EXPECT_LE(sorted[b][d], n.center[d] + n.half + 1e-12);
        }
    }

  tree.enforce_S(32);
  expect_valid(tree);
  EXPECT_LE(tree.max_leaf_count(), 32);
}

TEST(Octree, PermIsConsistentWithSortedPositions) {
  Rng rng(7);
  const auto pts = random_points(rng, 500, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(10));
  const auto perm = tree.perm();
  const auto sorted = tree.sorted_positions();
  for (std::size_t t = 0; t < perm.size(); ++t)
    EXPECT_EQ(sorted[t], pts[perm[t]]);
}

TEST(Octree, GatherScatterRoundTrip) {
  Rng rng(8);
  const auto pts = random_points(rng, 300, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(10));
  std::vector<double> original(300);
  for (int i = 0; i < 300; ++i) original[i] = i * 1.5;
  std::vector<double> tree_order;
  tree.gather(std::span<const double>(original), tree_order);
  std::vector<double> back(300, -1);
  tree.scatter(std::span<const double>(tree_order), std::span<double>(back));
  EXPECT_EQ(original, back);
}

TEST(Octree, CollapseHidesChildren) {
  Rng rng(9);
  const auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(32));
  const int before = static_cast<int>(tree.effective_leaves().size());

  // Find a "bottom" parent (all children effective leaves) and collapse it.
  int parent = -1;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (tree.is_effective_leaf(id)) continue;
    bool bottom = true;
    for (int c : tree.node(id).children)
      if (!tree.is_effective_leaf(c)) bottom = false;
    if (bottom) {
      parent = id;
      break;
    }
  }
  ASSERT_GE(parent, 0);
  tree.collapse(parent);
  EXPECT_TRUE(tree.is_effective_leaf(parent));
  const int after = static_cast<int>(tree.effective_leaves().size());
  // Eight children (some may be empty but still counted as leaves if
  // nonempty) are replaced by one leaf.
  EXPECT_LT(after, before);
  expect_valid(tree);
}

TEST(Octree, PushDownAfterCollapseRestoresSpans) {
  Rng rng(10);
  const auto pts = random_points(rng, 3000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(32));

  int parent = -1;
  for (int id = 0; id < tree.num_nodes(); ++id)
    if (!tree.is_effective_leaf(id)) parent = id;
  ASSERT_GE(parent, 0);

  // Record child spans, collapse, push down, compare.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
  for (int c : tree.node(parent).children)
    spans.push_back({tree.node(c).begin, tree.node(c).count});

  // Only collapse if children are leaves (collapse requires effective
  // parent; push_down reclaims). Force the situation: collapse bottom-up.
  auto collapse_subtree = [&](auto&& self, int id) -> void {
    if (tree.is_effective_leaf(id)) return;
    for (int c : tree.node(id).children) self(self, c);
    tree.collapse(id);
  };
  collapse_subtree(collapse_subtree, parent);
  ASSERT_TRUE(tree.is_effective_leaf(parent));

  ASSERT_TRUE(tree.push_down(parent));
  int i = 0;
  for (int c : tree.node(parent).children) {
    EXPECT_EQ(tree.node(c).begin, spans[i].first);
    EXPECT_EQ(tree.node(c).count, spans[i].second);
    ++i;
  }
}

TEST(Octree, PushDownAllocatesFreshChildrenOnTrueLeaf) {
  Rng rng(11);
  const auto pts = random_points(rng, 64, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(100));  // single leaf at root
  ASSERT_TRUE(tree.is_effective_leaf(tree.root()));
  const int nodes_before = tree.num_nodes();
  ASSERT_TRUE(tree.push_down(tree.root()));
  EXPECT_EQ(tree.num_nodes(), nodes_before + 8);
  expect_valid(tree);
  std::uint32_t sum = 0;
  for (int c : tree.node(tree.root()).children) sum += tree.node(c).count;
  EXPECT_EQ(sum, 64u);
}

TEST(Octree, PushDownAtMaxDepthRefuses) {
  std::vector<Vec3> pts(10, Vec3{0.5, 0.5, 0.5});
  AdaptiveOctree tree;
  auto tc = unit_config(100);
  tc.max_depth = 0;
  tree.build(pts, tc);
  EXPECT_FALSE(tree.push_down(tree.root()));
}

TEST(Octree, CollapseOnLeafThrows) {
  std::vector<Vec3> pts(5, Vec3{0.5, 0.5, 0.5});
  AdaptiveOctree tree;
  tree.build(pts, unit_config(100));
  EXPECT_THROW(tree.collapse(tree.root()), std::logic_error);
}

TEST(Octree, PushDownOnInternalThrows) {
  Rng rng(12);
  const auto pts = random_points(rng, 1000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(16));
  ASSERT_FALSE(tree.is_effective_leaf(tree.root()));
  EXPECT_THROW(tree.push_down(tree.root()), std::logic_error);
}

TEST(Octree, EnforceSRestoresCapacityAfterMotion) {
  Rng rng(13);
  auto pts = random_points(rng, 4000, {0.5, 0.5, 0.5}, 0.4);
  AdaptiveOctree tree;
  const int S = 32;
  tree.build(pts, unit_config(S));

  // Pull all bodies toward the center: leaves there overflow.
  for (auto& p : pts) p = Vec3{0.5, 0.5, 0.5} + 0.12 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(pts);
  EXPECT_GT(tree.max_leaf_count(), S);

  const int ops = tree.enforce_S(S);
  EXPECT_GT(ops, 0);
  expect_valid(tree);
  EXPECT_LE(tree.max_leaf_count(), S);

  // And no effective parent holds <= S bodies.
  for (int id = 0; id < tree.num_nodes(); ++id)
    if (!tree.is_effective_leaf(id) && tree.node(id).count > 0) {
      EXPECT_GT(tree.node(id).count, static_cast<std::uint32_t>(S));
    }
}

TEST(Octree, EnforceSIsIdempotent) {
  Rng rng(14);
  auto pts = random_points(rng, 3000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(20));
  for (auto& p : pts) p += Vec3{0.03, -0.02, 0.01};
  tree.rebin(pts);
  tree.enforce_S(20);
  EXPECT_EQ(tree.enforce_S(20), 0);
}

TEST(Octree, RebinKeepsStructureAndCounts) {
  Rng rng(15);
  auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.45);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(24));
  const int nodes = tree.num_nodes();
  const auto leaves = tree.effective_leaves();

  for (auto& p : pts)
    p += Vec3{rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
              rng.uniform(-0.01, 0.01)};
  tree.rebin(pts);
  expect_valid(tree);
  EXPECT_EQ(tree.num_nodes(), nodes);
  EXPECT_EQ(tree.effective_leaves(), leaves);
  std::uint64_t total = 0;
  for (int leaf : tree.effective_leaves()) total += tree.node(leaf).count;
  EXPECT_EQ(total, 2000u);
}

TEST(Octree, ParallelAndSerialRebinsAgree) {
  // Large enough that rebin re-splits subtrees as tasks.
  Rng rng(19);
  auto set = plummer(100000, rng);
  const TreeConfig tc = fit_cube(set.positions, unit_config(32));
  AdaptiveOctree serial;
  serial.build(set.positions, tc);
  AdaptiveOctree parallel = serial;
  std::vector<std::uint32_t> built_counts;
  for (int i = 0; i < serial.num_nodes(); ++i)
    built_counts.push_back(serial.node(i).count);
  // Every body moves toward the center and stays inside the root box; many
  // change leaf.
  for (auto& p : set.positions)
    p = tc.root_center + 0.9 * (p - tc.root_center);
  {
    OmpThreads one(1);
    serial.rebin(set.positions);
  }
  {
    OmpThreads four(4);
    parallel.rebin(set.positions);
  }
  expect_valid(parallel);
  expect_geometric_containment(parallel);
  for (std::size_t t = 0; t < parallel.num_bodies(); ++t)
    ASSERT_EQ(parallel.sorted_positions()[t],
              set.positions[parallel.perm()[t]]);
  ASSERT_EQ(serial.num_nodes(), parallel.num_nodes());
  int changed = 0;
  for (int i = 0; i < serial.num_nodes(); ++i) {
    changed += serial.node(i).count != built_counts[i];
    EXPECT_EQ(serial.node(i).begin, parallel.node(i).begin) << "node " << i;
    EXPECT_EQ(serial.node(i).count, parallel.node(i).count) << "node " << i;
  }
  EXPECT_GT(changed, 100);
  EXPECT_TRUE(std::equal(serial.perm().begin(), serial.perm().end(),
                         parallel.perm().begin(), parallel.perm().end()));
}

// ------------------------------------------ rebin against the reference ----

// What a rebin leaves behind: tree-ordered positions, the permutation and
// every node's span, hidden nodes included.
struct RebinImage {
  std::vector<Vec3> pos;
  std::vector<std::uint32_t> perm;
  std::vector<std::uint32_t> begin, count;
};

RebinImage image_of(const AdaptiveOctree& tree) {
  RebinImage r;
  r.pos.assign(tree.sorted_positions().begin(), tree.sorted_positions().end());
  r.perm.assign(tree.perm().begin(), tree.perm().end());
  for (int i = 0; i < tree.num_nodes(); ++i) {
    r.begin.push_back(tree.node(i).begin);
    r.count.push_back(tree.node(i).count);
  }
  return r;
}

// The reference for rebin: the one-level re-split it replaced. Gather, then
// top down, a stable partition of each effective parent's span by child
// octant (bodies on a splitting plane go up), copied back at every level.
RebinImage reference_rebin(const AdaptiveOctree& tree,
                           std::span<const Vec3> positions) {
  RebinImage r = image_of(tree);
  for (std::size_t t = 0; t < r.perm.size(); ++t) r.pos[t] = positions[r.perm[t]];
  std::vector<Vec3> spos(r.pos.size());
  std::vector<std::uint32_t> sperm(r.perm.size());
  auto octant = [](const Vec3& p, const Vec3& c) {
    return (p.x >= c.x ? 1 : 0) | (p.y >= c.y ? 2 : 0) | (p.z >= c.z ? 4 : 0);
  };
  auto resplit = [&](auto&& self, int id) -> void {
    if (tree.is_effective_leaf(id)) return;
    const OctreeNode& n = tree.node(id);
    const std::uint32_t b = r.begin[id], e = b + r.count[id];
    std::uint32_t at[9] = {};
    for (std::uint32_t i = b; i < e; ++i) ++at[octant(r.pos[i], n.center) + 1];
    at[0] = b;
    for (int o = 0; o < 8; ++o) at[o + 1] += at[o];
    for (int o = 0; o < 8; ++o) {
      r.begin[n.children[o]] = at[o];
      r.count[n.children[o]] = at[o + 1] - at[o];
    }
    for (std::uint32_t i = b; i < e; ++i) {
      const std::uint32_t to = at[octant(r.pos[i], n.center)]++;
      spos[to] = r.pos[i];
      sperm[to] = r.perm[i];
    }
    std::copy(spos.begin() + b, spos.begin() + e, r.pos.begin() + b);
    std::copy(sperm.begin() + b, sperm.begin() + e, r.perm.begin() + b);
    for (int c : n.children) self(self, c);
  };
  resplit(resplit, tree.root());
  return r;
}

template <class T>
bool same_bytes(const std::vector<T>& a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(Octree, RebinMatchesOneLevelReference) {
  // A clustered cloud whose dense core keeps more than 32k bodies in nodes
  // below the root, so passes split across the team; collapsed nodes; NaN
  // positions; bodies exactly on splitting planes; a stack of coincident
  // bodies in a leaf at max_depth. Each motion step rebins copies of one
  // tree at 1, 3 and 4 threads and compares them byte for byte with the
  // reference.
  Rng rng(31);
  PlummerOptions opt;
  opt.scale_radius = 0.02;
  opt.center = {0.3, 0.3, 0.3};
  opt.max_radius = 20.0;
  std::vector<Vec3> pts = plummer(120000, rng, opt).positions;
  const Vec3 stack{0.61, 0.71, 0.81};
  constexpr int kStacked = 100;
  for (int i = 0; i < kStacked; ++i) pts[i] = stack;
  constexpr int kNaN = 7;
  for (int i = kStacked; i < kStacked + kNaN; ++i)
    pts[i] = {std::numeric_limits<double>::quiet_NaN(), 0.3, 0.3};
  TreeConfig tc = unit_config(64);
  AdaptiveOctree tree;
  tree.build(pts, tc);

  bool at_max_depth = false;
  std::vector<int> parents;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    at_max_depth |= tree.node(id).level == tc.max_depth &&
                    tree.node(id).count > 0;
    if (!tree.is_effective_leaf(id)) parents.push_back(id);
  }
  ASSERT_TRUE(at_max_depth);
  int heavy_below_root = 0;
  for (int id : parents)
    heavy_below_root += id != tree.root() && tree.node(id).count > 32768;
  ASSERT_GT(heavy_below_root, 1);
  // Hide a few effective parents, some of them heavy.
  int collapsed = 0;
  for (int id : parents)
    if (tree.node(id).level >= 3 && tree.node(id).count > 0 &&
        rng.below(8) == 0 && !tree.is_effective_leaf(tree.node(id).parent)) {
      tree.collapse(id);
      ++collapsed;
    }
  ASSERT_GT(collapsed, 10);

  const int first_free = kStacked + kNaN;
  for (int step = 0; step < 4; ++step) {
    SCOPED_TRACE(step);
    for (std::size_t i = first_free; i < pts.size(); ++i)
      pts[i] = opt.center + 0.97 * (pts[i] - opt.center) +
               Vec3{rng.uniform(-2e-3, 2e-3), rng.uniform(-2e-3, 2e-3),
                    rng.uniform(-2e-3, 2e-3)};
    // Bodies exactly on the splitting planes of random effective parents.
    for (std::size_t i = first_free; i < first_free + 200u; ++i)
      pts[i] = tree.node(parents[rng.below(parents.size())]).center;
    const RebinImage ref = reference_rebin(tree, pts);
    AdaptiveOctree next;
    for (int threads : {1, 3, 4}) {
      SCOPED_TRACE(threads);
      AdaptiveOctree copy = tree;
      {
        OmpThreads team(threads);
        copy.rebin(pts);
      }
      EXPECT_TRUE(same_bytes(ref.pos, copy.sorted_positions()));
      EXPECT_TRUE(same_bytes(ref.perm, copy.perm()));
      const RebinImage got = image_of(copy);
      EXPECT_TRUE(got.begin == ref.begin);
      EXPECT_TRUE(got.count == ref.count);
      next = std::move(copy);
    }
    tree = std::move(next);
  }
}

TEST(Octree, RebinRejectsChangedBodyCount) {
  Rng rng(16);
  auto pts = random_points(rng, 100, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(10));
  pts.pop_back();
  EXPECT_THROW(tree.rebin(pts), std::invalid_argument);
}

TEST(Octree, UniformBuildHasAllLeavesAtDepth) {
  Rng rng(17);
  const auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build_uniform(pts, unit_config(0), 3);
  expect_valid(tree);
  int leaves = 0;
  for (int id = 0; id < tree.num_nodes(); ++id)
    if (tree.is_effective_leaf(id)) {
      EXPECT_EQ(tree.node(id).level, 3);
      ++leaves;
    }
  EXPECT_EQ(leaves, 8 * 8 * 8);
}

TEST(Octree, UniformBuildDepthZeroIsSingleLeaf) {
  Rng rng(18);
  const auto pts = random_points(rng, 50, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build_uniform(pts, unit_config(0), 0);
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_TRUE(tree.is_effective_leaf(tree.root()));
}

TEST(Octree, FitCubeContainsAllPoints) {
  Rng rng(19);
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({rng.uniform(-3, 7), rng.uniform(10, 12), rng.uniform(-1, 0)});
  const auto tc = fit_cube(pts);
  for (const auto& p : pts)
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(p[d], tc.root_center[d] - tc.root_half);
      EXPECT_LE(p[d], tc.root_center[d] + tc.root_half);
    }
}

TEST(Octree, EffectiveLeavesRespectCollapseFlag) {
  Rng rng(20);
  const auto pts = random_points(rng, 3000, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(16));
  const auto before = tree.effective_leaves().size();
  // Collapse the deepest bottom parent.
  int target = -1;
  int best_level = -1;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (tree.is_effective_leaf(id)) continue;
    bool bottom = true;
    for (int c : tree.node(id).children)
      if (!tree.is_effective_leaf(c)) bottom = false;
    if (bottom && tree.node(id).level > best_level) {
      best_level = tree.node(id).level;
      target = id;
    }
  }
  ASSERT_GE(target, 0);
  tree.collapse(target);
  const auto after = tree.effective_leaves().size();
  EXPECT_LT(after, before);
  for (int leaf : tree.effective_leaves()) {
    // No effective leaf may sit strictly below a collapsed ancestor.
    int up = tree.node(leaf).parent;
    while (up >= 0) {
      EXPECT_FALSE(tree.is_effective_leaf(up) && up != leaf)
          << "leaf below an effective leaf";
      up = tree.node(up).parent;
    }
  }
}

TEST(Octree, RandomSurgerySequencePreservesInvariants) {
  // Property test: any sequence of rebin / enforce_S / collapse / push_down
  // on drifting bodies keeps the structural invariants and the body
  // partition intact. This is the paper's tree-maintenance life cycle run
  // for hundreds of random operations.
  Rng rng(2024);
  auto pts = random_points(rng, 3000, {0.5, 0.5, 0.5}, 0.4);
  AdaptiveOctree tree;
  const int S = 24;
  tree.build(pts, unit_config(S));

  for (int op = 0; op < 200; ++op) {
    switch (rng.below(4)) {
      case 0: {  // drift bodies and rebin
        for (auto& p : pts) {
          p += Vec3{rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
                    rng.uniform(-0.01, 0.01)};
          for (int d = 0; d < 3; ++d) p[d] = std::clamp(p[d], 0.001, 0.999);
        }
        tree.rebin(pts);
        break;
      }
      case 1:
        tree.enforce_S(S);
        break;
      case 2: {  // collapse a random bottom parent, if any
        std::vector<int> bottoms;
        for (int id = 0; id < tree.num_nodes(); ++id) {
          if (tree.is_effective_leaf(id)) continue;
          bool bottom = true;
          for (int c : tree.node(id).children)
            if (!tree.is_effective_leaf(c)) bottom = false;
          if (bottom) bottoms.push_back(id);
        }
        if (!bottoms.empty())
          tree.collapse(bottoms[rng.below(bottoms.size())]);
        break;
      }
      case 3: {  // push a random non-trivial leaf down
        const auto leaves = tree.effective_leaves();
        std::vector<int> candidates;
        for (int leaf : leaves)
          if (tree.node(leaf).count > 1 &&
              tree.node(leaf).level < tree.config().max_depth)
            candidates.push_back(leaf);
        if (!candidates.empty())
          tree.push_down(candidates[rng.below(candidates.size())]);
        break;
      }
    }
    expect_valid(tree);
    // Bodies always remain partitioned among effective leaves.
    std::uint64_t total = 0;
    for (int leaf : tree.effective_leaves()) total += tree.node(leaf).count;
    ASSERT_EQ(total, pts.size()) << "op " << op;
  }
}

TEST(Octree, EnforceAfterSurgeryRestoresCapacity) {
  Rng rng(2025);
  auto pts = random_points(rng, 2000, {0.5, 0.5, 0.5}, 0.4);
  AdaptiveOctree tree;
  tree.build(pts, unit_config(16));
  // Collapse everything bottom-up to a shallow tree, then enforce.
  auto collapse_all = [&](auto&& self, int id) -> void {
    if (tree.is_effective_leaf(id)) return;
    for (int c : tree.node(id).children) self(self, c);
    if (tree.node(id).level >= 2) tree.collapse(id);
  };
  collapse_all(collapse_all, tree.root());
  EXPECT_GT(tree.max_leaf_count(), 16);
  tree.enforce_S(16);
  expect_valid(tree);
  EXPECT_LE(tree.max_leaf_count(), 16);
}

TEST(Octree, PlummerBuildIsHighlyAdaptive) {
  Rng rng(21);
  PlummerOptions opt;
  opt.scale_radius = 0.02;
  opt.center = {0.5, 0.5, 0.5};
  opt.max_radius = 20.0;
  auto set = plummer(20000, rng, opt);
  AdaptiveOctree tree;
  auto tc = unit_config(32);
  tc.root_half = 0.5;
  tree.build(set.positions, tc);
  expect_valid(tree);
  // Central density >> edge density: depth spread must be large (the paper's
  // 10M-body Plummer tree spans levels 2..15).
  int min_leaf_level = 99, max_leaf_level = 0;
  for (int leaf : tree.effective_leaves()) {
    if (tree.node(leaf).count == 0) continue;
    min_leaf_level = std::min(min_leaf_level, tree.node(leaf).level);
    max_leaf_level = std::max(max_leaf_level, tree.node(leaf).level);
  }
  EXPECT_GE(max_leaf_level - min_leaf_level, 4);
}

}  // namespace
}  // namespace afmm
