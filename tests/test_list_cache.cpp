#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
#include "octree/list_cache.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"
#include "omp_threads.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

TreeConfig unit_config(int S) {
  TreeConfig tc;
  tc.leaf_capacity = S;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  return tc;
}

void expect_lists_equal(const InteractionLists& a, const InteractionLists& b) {
  EXPECT_EQ(a.m2l_offset, b.m2l_offset);
  EXPECT_EQ(a.m2l_sources, b.m2l_sources);
  ASSERT_EQ(a.p2p.size(), b.p2p.size());
  for (std::size_t i = 0; i < a.p2p.size(); ++i) {
    EXPECT_EQ(a.p2p[i].target, b.p2p[i].target) << "work item " << i;
    EXPECT_EQ(a.p2p[i].sources, b.p2p[i].sources) << "work item " << i;
    EXPECT_EQ(a.p2p[i].interactions, b.p2p[i].interactions) << "work item " << i;
  }
  EXPECT_EQ(a.total_m2l_pairs, b.total_m2l_pairs);
  EXPECT_EQ(a.total_p2p_interactions, b.total_p2p_interactions);
}

void expect_counts_equal(const OpCounts& a, const OpCounts& b) {
  EXPECT_EQ(a.p2m, b.p2m);
  EXPECT_EQ(a.p2m_bodies, b.p2m_bodies);
  EXPECT_EQ(a.m2m, b.m2m);
  EXPECT_EQ(a.m2l, b.m2l);
  EXPECT_EQ(a.l2l, b.l2l);
  EXPECT_EQ(a.l2p, b.l2p);
  EXPECT_EQ(a.l2p_bodies, b.l2p_bodies);
  EXPECT_EQ(a.p2p_interactions, b.p2p_interactions);
  EXPECT_EQ(a.p2p_node_pairs, b.p2p_node_pairs);
}

// Per node: its count is zero (the emptiness filter_interaction_lists takes).
std::vector<char> emptiness(const AdaptiveOctree& tree) {
  std::vector<char> out(static_cast<std::size_t>(tree.num_nodes()));
  for (int i = 0; i < tree.num_nodes(); ++i) out[i] = tree.node(i).count == 0;
  return out;
}

// A few bottom parents (every child an effective leaf): the collapse
// candidates of FineGrainedOptimize.
std::vector<int> bottom_parents(const AdaptiveOctree& tree, int at_most) {
  std::vector<int> out;
  for (int id = 0; id < tree.num_nodes() &&
                   static_cast<int>(out.size()) < at_most; ++id) {
    if (tree.is_effective_leaf(id) || tree.node(id).count == 0) continue;
    bool bottom = true;
    for (int c : tree.node(id).children)
      if (!tree.is_effective_leaf(c)) bottom = false;
    if (bottom) out.push_back(id);
  }
  return out;
}

// ------------------------------------------ split walk vs plain recursion ----

// The traversal's recursion rule as a plain depth-first walk, with no split
// and no OpenMP, grouped as the library groups: M2L pairs into CSR by
// target, P2P pairs into per-target items in order of first appearance.
InteractionLists reference_lists(const AdaptiveOctree& tree, double theta) {
  constexpr double kSqrt3 = 1.7320508075688772;
  std::vector<std::pair<int, int>> m2l, p2p;
  auto walk = [&](auto&& self, int ta, int sb) -> void {
    const OctreeNode& a = tree.node(ta);
    const OctreeNode& b = tree.node(sb);
    if (a.count == 0 || b.count == 0) return;
    const double s = (a.half * kSqrt3 + b.half * kSqrt3) / theta;
    if (norm2(a.center - b.center) > s * s) {
      m2l.emplace_back(ta, sb);
      return;
    }
    const bool la = tree.is_effective_leaf(ta);
    const bool lb = tree.is_effective_leaf(sb);
    if (la && lb) {
      p2p.emplace_back(ta, sb);
    } else if (lb || (!la && a.half >= b.half)) {
      for (int ch : a.children) self(self, ch, sb);
    } else {
      for (int ch : b.children) self(self, ta, ch);
    }
  };
  walk(walk, tree.root(), tree.root());

  const int n = tree.num_nodes();
  InteractionLists out;
  out.m2l_offset.assign(n + 1, 0);
  for (const auto& [t, s] : m2l) ++out.m2l_offset[t + 1];
  for (int i = 0; i < n; ++i) out.m2l_offset[i + 1] += out.m2l_offset[i];
  std::vector<std::uint32_t> cursor(out.m2l_offset.begin(),
                                    out.m2l_offset.end() - 1);
  out.m2l_sources.resize(m2l.size());
  for (const auto& [t, s] : m2l) out.m2l_sources[cursor[t]++] = s;
  out.total_m2l_pairs = m2l.size();

  std::vector<int> work_of(n, -1);
  for (const auto& [t, s] : p2p) {
    if (work_of[t] < 0) {
      work_of[t] = static_cast<int>(out.p2p.size());
      out.p2p.push_back({t, {}, 0});
    }
    P2PWork& w = out.p2p[work_of[t]];
    w.sources.push_back(s);
    w.interactions +=
        static_cast<std::uint64_t>(tree.node(t).count) * tree.node(s).count;
    out.total_p2p_interactions +=
        static_cast<std::uint64_t>(tree.node(t).count) * tree.node(s).count;
  }
  return out;
}

struct WalkCase {
  const char* name;
  int n;
  int S;
  bool plummer;
};

class ParallelWalk : public ::testing::TestWithParam<WalkCase> {};

TEST_P(ParallelWalk, MatchesReferenceWalkBitForBit) {
  const auto& wc = GetParam();
  Rng rng(wc.n + wc.S);
  std::vector<Vec3> pts;
  TreeConfig tc;
  if (wc.plummer) {
    auto set = plummer(static_cast<std::size_t>(wc.n), rng);
    pts = std::move(set.positions);
    tc = fit_cube(pts, unit_config(wc.S));
  } else {
    auto set = uniform_cube(static_cast<std::size_t>(wc.n), rng,
                            {0.5, 0.5, 0.5}, 0.5);
    pts = std::move(set.positions);
    tc = unit_config(wc.S);
  }
  tc.leaf_capacity = wc.S;
  AdaptiveOctree tree;
  tree.build(pts, tc);

  const TraversalConfig cfg;
  const InteractionLists ref = reference_lists(tree, cfg.theta);
  ASSERT_GT(ref.total_m2l_pairs, 0u);
  for (int threads : {1, 4}) {
    OmpThreads scope(threads);
    SCOPED_TRACE(threads);
    expect_lists_equal(build_interaction_lists(tree, cfg), ref);
    // The count-blind rows, filtered by the tree's emptiness, give the
    // same lists.
    PairRows rows;
    walk_count_blind(tree, cfg, rows);
    InteractionLists filtered;
    filter_interaction_lists(tree, rows, emptiness(tree), filtered);
    expect_lists_equal(filtered, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, ParallelWalk,
    ::testing::Values(WalkCase{"uniform_fine", 20000, 16, false},
                      WalkCase{"uniform_coarse", 20000, 128, false},
                      WalkCase{"plummer_fine", 20000, 16, true},
                      WalkCase{"plummer_coarse", 20000, 128, true},
                      WalkCase{"uniform_s8", 12000, 8, false},
                      WalkCase{"plummer_s8", 12000, 8, true},
                      // A dense core whose pairs split several levels deep.
                      WalkCase{"plummer_deep_split", 60000, 512, true}),
    [](const auto& info) { return info.param.name; });

// ------------------------------------------------------------- the cache ----

TEST(ListCache, HitOnUnchangedStructure) {
  Rng rng(21);
  auto set = uniform_cube(5000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(32));

  InteractionListCache cache;
  TraversalConfig cfg;
  const auto& l1 = cache.get(tree, cfg);
  const auto& l2 = cache.get(tree, cfg);
  EXPECT_EQ(&l1, &l2);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  expect_lists_equal(l2, build_interaction_lists(tree, cfg));
}

TEST(ListCache, ChangedConfigRebuilds) {
  Rng rng(22);
  auto set = uniform_cube(3000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(32));

  InteractionListCache cache;
  TraversalConfig cfg;
  cache.get(tree, cfg);
  TraversalConfig tighter = cfg;
  tighter.theta = 0.4;
  const auto& lt = cache.get(tree, tighter);
  EXPECT_EQ(cache.builds(), 2u);
  expect_lists_equal(lt, build_interaction_lists(tree, tighter));
}

TEST(ListCache, EachStructureOperationInvalidates) {
  Rng rng(23);
  auto set = uniform_cube(8000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(16));

  InteractionListCache cache;
  TraversalConfig cfg;
  cache.get(tree, cfg);
  EXPECT_EQ(cache.builds(), 1u);

  // build()
  tree.build(set.positions, unit_config(16));
  cache.get(tree, cfg);
  EXPECT_EQ(cache.builds(), 2u);

  // collapse()
  const auto parents = bottom_parents(tree, 1);
  ASSERT_EQ(parents.size(), 1u);
  tree.collapse(parents[0]);
  expect_lists_equal(cache.get(tree, cfg), build_interaction_lists(tree, cfg));
  EXPECT_EQ(cache.builds(), 3u);

  // push_down() (undoes the collapse; still a structure change)
  ASSERT_TRUE(tree.push_down(parents[0]));
  expect_lists_equal(cache.get(tree, cfg), build_interaction_lists(tree, cfg));
  EXPECT_EQ(cache.builds(), 4u);

  // enforce_S() with a smaller S must apply ops and invalidate.
  ASSERT_GT(tree.enforce_S(8), 0);
  expect_lists_equal(cache.get(tree, cfg), build_interaction_lists(tree, cfg));
  EXPECT_EQ(cache.builds(), 5u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ListCache, RebinDoesNotInvalidate) {
  Rng rng(24);
  auto set = uniform_cube(6000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(32));

  InteractionListCache cache;
  TraversalConfig cfg;
  cache.get(tree, cfg);
  tree.rebin(set.positions);  // unchanged bodies: counts identical
  cache.get(tree, cfg);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ListCache, RebinRefreshesInteractionCounts) {
  // Two bodies per octant of the unit cube, none near a face: S = 8 gives
  // one level of eight non-empty leaves. Moving one body across the x = 0.5
  // face changes leaf counts (2,2 -> 1,3) without emptying any leaf, so the
  // cached lists survive the rebin with refreshed Interactions(t).
  std::vector<Vec3> pts;
  for (int o = 0; o < 8; ++o) {
    const Vec3 c{(o & 1) ? 0.75 : 0.25, (o & 2) ? 0.75 : 0.25,
                 (o & 4) ? 0.75 : 0.25};
    pts.push_back(c + Vec3{-0.05, 0.0, 0.0});
    pts.push_back(c + Vec3{+0.05, 0.0, 0.0});
  }
  AdaptiveOctree tree;
  tree.build(pts, unit_config(8));
  ASSERT_GT(tree.num_nodes(), 1);

  InteractionListCache cache;
  TraversalConfig cfg;
  cfg.theta = 0.9;  // adjacent level-1 boxes are never separated; all P2P
  cache.get(tree, cfg);

  pts[1].x = 0.55;  // octant 0 -> octant 1, both stay non-empty
  tree.rebin(pts);
  const auto& refreshed = cache.get(tree, cfg);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.refreshes(), 1u);
  expect_lists_equal(refreshed, build_interaction_lists(tree, cfg));
}

// Two bodies in each of octants 0-6 of the unit cube and one lone body in
// octant 7, none near a face: S = 8 gives one level of eight non-empty
// leaves.
std::vector<Vec3> octant_bodies() {
  std::vector<Vec3> pts;
  for (int o = 0; o < 7; ++o) {
    const Vec3 c{(o & 1) ? 0.75 : 0.25, (o & 2) ? 0.75 : 0.25,
                 (o & 4) ? 0.75 : 0.25};
    pts.push_back(c + Vec3{-0.05, 0.0, 0.0});
    pts.push_back(c + Vec3{+0.05, 0.0, 0.0});
  }
  pts.push_back({0.75, 0.75, 0.75});
  return pts;
}

TEST(ListCache, RebinThatEmptiesALeafRebuilds) {
  // The lone body keeps octant 7 barely non-empty; moving it out empties the
  // leaf, which changes the traversal's pruning -- the cache must notice
  // instead of serving stale lists. The first flip on a structure walks it
  // once, count-blind.
  std::vector<Vec3> pts = octant_bodies();
  AdaptiveOctree tree;
  tree.build(pts, unit_config(8));

  InteractionListCache cache;
  TraversalConfig cfg;
  cache.get(tree, cfg);

  pts.back() = {0.45, 0.75, 0.75};  // crosses into octant 6; octant 7 empties
  tree.rebin(pts);
  const auto& rebuilt = cache.get(tree, cfg);
  EXPECT_EQ(cache.builds(), 2u);
  expect_lists_equal(rebuilt, build_interaction_lists(tree, cfg));
}

TEST(ListCache, SecondFlipThatFillsALeafNeedsNoWalk) {
  std::vector<Vec3> pts = octant_bodies();
  AdaptiveOctree tree;
  tree.build(pts, unit_config(8));
  InteractionListCache cache;
  TraversalConfig cfg;
  cache.get(tree, cfg);

  pts.back() = {0.45, 0.75, 0.75};  // octant 7 empties: the first flip walks
  tree.rebin(pts);
  cache.get(tree, cfg);
  ASSERT_EQ(cache.builds(), 2u);
  const std::uint64_t refreshes = cache.refreshes();

  pts.back() = {0.75, 0.75, 0.75};  // the empty octant 7 fills again
  tree.rebin(pts);
  const auto& refiltered = cache.get(tree, cfg);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.refreshes(), refreshes + 1);
  expect_lists_equal(refiltered, build_interaction_lists(tree, cfg));
}

TEST(ListCache, SecondFlipThatEmptiesALeafNeedsNoWalk) {
  std::vector<Vec3> pts = octant_bodies();
  AdaptiveOctree tree;
  tree.build(pts, unit_config(8));
  InteractionListCache cache;
  TraversalConfig cfg;
  cache.get(tree, cfg);

  pts.back() = {0.45, 0.75, 0.75};  // octant 7 empties: the first flip walks
  tree.rebin(pts);
  cache.get(tree, cfg);
  ASSERT_EQ(cache.builds(), 2u);
  const std::uint64_t refreshes = cache.refreshes();

  pts[0] = {0.55, 0.25, 0.25};  // both bodies of octant 0 leave for octant 1
  pts[1] = {0.60, 0.25, 0.25};
  tree.rebin(pts);
  const auto& refiltered = cache.get(tree, cfg);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.refreshes(), refreshes + 1);
  expect_lists_equal(refiltered, build_interaction_lists(tree, cfg));
}

TEST(ListCache, RandomMotionMatchesFreshBuilds) {
  // Bodies jitter inside one fixed structure, so from one rebin to the next
  // leaves empty and fill. Every get() must equal a fresh build, and only
  // the first flip may walk.
  constexpr int kRebins = 20;
  for (int threads : {1, 4}) {
    OmpThreads scope(threads);
    SCOPED_TRACE(threads);
    Rng rng(27);
    auto set = uniform_cube(6000, rng, {0.5, 0.5, 0.5}, 0.5);
    std::vector<Vec3> pts = std::move(set.positions);
    AdaptiveOctree tree;
    tree.build(pts, unit_config(8));

    InteractionListCache cache;
    TraversalConfig cfg;
    expect_lists_equal(cache.get(tree, cfg),
                       build_interaction_lists(tree, cfg));
    std::vector<char> before = emptiness(tree);
    int emptied = 0, filled = 0, flips = 0;
    for (int step = 0; step < kRebins; ++step) {
      for (Vec3& p : pts) {
        p = p + Vec3{rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
                     rng.uniform(-0.01, 0.01)};
        p = {std::clamp(p.x, 0.001, 0.999), std::clamp(p.y, 0.001, 0.999),
             std::clamp(p.z, 0.001, 0.999)};
      }
      tree.rebin(pts);
      const std::vector<char> after = emptiness(tree);
      for (std::size_t i = 0; i < after.size(); ++i) {
        emptied += !before[i] && after[i];
        filled += before[i] && !after[i];
      }
      flips += after != before;
      before = after;
      SCOPED_TRACE(step);
      expect_lists_equal(cache.get(tree, cfg),
                         build_interaction_lists(tree, cfg));
    }
    EXPECT_GT(emptied, 0);
    EXPECT_GT(filled, 0);
    EXPECT_GT(flips, 1) << "no flip after the first: nothing was re-filtered";
    EXPECT_EQ(cache.builds(), 2u);  // the first build and the first flip
    EXPECT_EQ(cache.refreshes(), kRebins - 1u);
  }
}

// The P2P targets a re-filter would list if it ordered its items by their
// first count-blind pair rather than their first kept one.
std::vector<int> targets_by_first_count_blind_pair(
    const PairRows& rows, const std::vector<char>& empty) {
  std::vector<std::pair<std::uint32_t, int>> first;
  for (std::size_t r = 0; r < rows.p2p_target.size(); ++r) {
    const int t = rows.p2p_target[r];
    bool kept = false;
    for (std::uint32_t k = rows.p2p_offset[r]; k < rows.p2p_offset[r + 1]; ++k)
      kept |= !empty[rows.p2p_sources[k]];
    if (!empty[t] && kept)
      first.emplace_back(rows.p2p_walk_index[rows.p2p_offset[r]], t);
  }
  std::sort(first.begin(), first.end());
  std::vector<int> out;
  for (const auto& [w, t] : first) out.push_back(t);
  return out;
}

std::vector<int> item_targets(const InteractionLists& lists) {
  std::vector<int> out;
  for (const P2PWork& w : lists.p2p) out.push_back(w.target);
  return out;
}

TEST(ListCache, ItemWhoseFirstCountBlindPairEmptiesMovesLater) {
  // 48 bodies at S = 2, jittered once: some target keeps its bodies while
  // the source of its first count-blind P2P pair empties, so its first kept
  // pair comes after another target's and its item moves later. The item
  // order therefore differs from the count-blind one, and the re-filter
  // must still equal a fresh build.
  Rng rng(1);
  std::vector<Vec3> pts =
      uniform_cube(48, rng, {0.5, 0.5, 0.5}, 0.5).positions;
  AdaptiveOctree tree;
  tree.build(pts, unit_config(2));
  const TraversalConfig cfg;
  PairRows rows;
  walk_count_blind(tree, cfg, rows);
  for (Vec3& p : pts) {
    p = p + Vec3{rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                 rng.uniform(-0.05, 0.05)};
    p = {std::clamp(p.x, 0.001, 0.999), std::clamp(p.y, 0.001, 0.999),
         std::clamp(p.z, 0.001, 0.999)};
  }
  tree.rebin(pts);
  const std::vector<char> empty = emptiness(tree);
  const InteractionLists fresh = build_interaction_lists(tree, cfg);

  int moved = 0;
  for (std::size_t r = 0; r < rows.p2p_target.size(); ++r)
    moved += !empty[rows.p2p_target[r]] &&
             empty[rows.p2p_sources[rows.p2p_offset[r]]];
  ASSERT_GT(moved, 0) << "no first count-blind pair lost its source";
  ASSERT_NE(targets_by_first_count_blind_pair(rows, empty),
            item_targets(fresh));

  InteractionLists filtered;
  filter_interaction_lists(tree, rows, empty, filtered);
  expect_lists_equal(filtered, fresh);
}

TEST(ListCache, RowRefilterAboveParallelThresholdMatchesBuilds) {
  // A clustered tree whose count-blind rows hold far more than the 16,384
  // pairs below which a re-filter opens no parallel region. Its bodies
  // contract over several rebins, so leaves empty and fill; each re-filter
  // writes into the previous one's lists, as the cache's do.
  for (int threads : {1, 4}) {
    OmpThreads scope(threads);
    SCOPED_TRACE(threads);
    Rng rng(41);
    PlummerOptions opt;
    opt.scale_radius = 0.05;
    std::vector<Vec3> pts = plummer(30000, rng, opt).positions;
    AdaptiveOctree tree;
    tree.build(pts, fit_cube(pts, unit_config(16)));
    const TraversalConfig cfg;
    PairRows rows;
    walk_count_blind(tree, cfg, rows);
    ASSERT_GT(rows.m2l_sources.size() + rows.p2p_sources.size(), 160000u);

    InteractionLists lists;
    std::vector<char> before = emptiness(tree);
    int flips = 0, reordered = 0;
    for (int step = 0; step < 6; ++step) {
      SCOPED_TRACE(step);
      for (Vec3& p : pts)
        p = 0.95 * p + Vec3{rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3),
                            rng.uniform(-1e-3, 1e-3)};
      tree.rebin(pts);
      const std::vector<char> after = emptiness(tree);
      flips += after != before;
      before = after;
      filter_interaction_lists(tree, rows, after, lists);
      const InteractionLists fresh = build_interaction_lists(tree, cfg);
      reordered +=
          targets_by_first_count_blind_pair(rows, after) != item_targets(fresh);
      expect_lists_equal(lists, fresh);
    }
    EXPECT_GT(flips, 2);
    EXPECT_GT(reordered, 0);
  }
}

TEST(ListCache, SolvePerformsExactlyOneTraversal) {
  Rng rng(25);
  const int n = 4000;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  std::vector<double> q(n, 1.0);

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(64));

  GravitySolver solver(FmmConfig{},
                       NodeSimulator(CpuModelConfig{},
                                     GpuSystemConfig::uniform(2)));
  solver.solve(tree, set.positions, q);
  EXPECT_EQ(solver.list_cache().builds(), 1u);

  // Unchanged structure: the second solve reuses the memoized lists.
  solver.solve(tree, set.positions, q);
  EXPECT_EQ(solver.list_cache().builds(), 1u);
  EXPECT_GE(solver.list_cache().hits(), 1u);

  // A structure change re-traverses exactly once.
  ASSERT_GT(tree.enforce_S(32), 0);
  solver.solve(tree, set.positions, q);
  EXPECT_EQ(solver.list_cache().builds(), 2u);
}

// ------------------------------------------------- incremental recounting ----

TEST(ListCache, TouchingRecountMatchesFullRecount) {
  Rng rng(26);
  auto set = plummer(10000, rng);
  AdaptiveOctree tree;
  tree.build(set.positions, fit_cube(set.positions, unit_config(16)));

  TraversalConfig cfg;
  OpCounts counts = count_operations(tree, build_interaction_lists(tree, cfg));

  // Collapse a batch of bottom parents, tracking the delta incrementally.
  const auto batch = bottom_parents(tree, 8);
  ASSERT_GT(batch.size(), 0u);
  OpCounts before = count_operations_touching(tree, batch, cfg);
  for (int id : batch) tree.collapse(id);
  counts += count_operations_touching(tree, batch, cfg);
  counts -= before;
  expect_counts_equal(counts,
                      count_operations(tree, build_interaction_lists(tree, cfg)));

  // And back: push the same nodes down again (the revert direction).
  before = count_operations_touching(tree, batch, cfg);
  for (int id : batch) ASSERT_TRUE(tree.push_down(id));
  counts += count_operations_touching(tree, batch, cfg);
  counts -= before;
  expect_counts_equal(counts,
                      count_operations(tree, build_interaction_lists(tree, cfg)));
}

}  // namespace
}  // namespace afmm
