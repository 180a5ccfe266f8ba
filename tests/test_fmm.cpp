#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
#include "omp_threads.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace afmm {
namespace {

TreeConfig unit_config(int S) {
  TreeConfig tc;
  tc.leaf_capacity = S;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  return tc;
}

NodeSimulator default_node(int gpus = 1) {
  return NodeSimulator(CpuModelConfig{}, GpuSystemConfig::uniform(gpus));
}

// Flatten potentials + gradients for error norms.
void flatten(const GravityResult& res, const std::vector<GravityAccum>& ref,
             std::vector<double>& a, std::vector<double>& b) {
  a.clear();
  b.clear();
  for (std::size_t i = 0; i < res.potential.size(); ++i) {
    a.push_back(res.potential[i]);
    b.push_back(ref[i].pot);
    for (int d = 0; d < 3; ++d) {
      a.push_back(res.gradient[i][d]);
      b.push_back(ref[i].grad[d]);
    }
  }
}

struct FmmCase {
  int order;
  int S;
  double max_err;
};

class FmmAccuracy : public ::testing::TestWithParam<FmmCase> {};

TEST_P(FmmAccuracy, UniformCloudMatchesDirect) {
  const auto [order, S, max_err] = GetParam();
  Rng rng(order * 100 + S);
  const int n = 1500;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform(0.2, 1.8);

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(S));

  FmmConfig cfg;
  cfg.order = order;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, set.positions, q);
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions, q);

  std::vector<double> a, b;
  flatten(res, ref, a, b);
  EXPECT_LT(rel_l2_error(a, b), max_err)
      << "order=" << order << " S=" << S;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FmmAccuracy,
    ::testing::Values(FmmCase{2, 20, 1e-2}, FmmCase{4, 20, 5e-4},
                      FmmCase{6, 20, 2e-5}, FmmCase{8, 20, 2e-6},
                      FmmCase{4, 5, 5e-4}, FmmCase{4, 100, 5e-4},
                      FmmCase{4, 2000, 1e-12}  // single leaf: pure direct
                      ));

TEST(Fmm, ErrorDecreasesMonotonicallyWithOrder) {
  Rng rng(31);
  const int n = 1200;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(25));
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions, set.masses);

  double prev = 1e9;
  for (int p : {2, 3, 4, 5, 6}) {
    FmmConfig cfg;
    cfg.order = p;
    GravitySolver solver(cfg, default_node());
    const auto res = solver.solve(tree, set.positions, set.masses);
    std::vector<double> a, b;
    flatten(res, ref, a, b);
    const double err = rel_l2_error(a, b);
    EXPECT_LT(err, prev) << "p=" << p;
    prev = err;
  }
}

TEST(Fmm, PlummerDistributionAccurate) {
  // The adaptive tree must stay accurate on the paper's highly non-uniform
  // test distribution.
  Rng rng(32);
  PlummerOptions opt;
  opt.scale_radius = 0.03;
  opt.center = {0.5, 0.5, 0.5};
  auto set = plummer(2000, rng, opt);
  AdaptiveOctree tree;
  auto tc = unit_config(20);
  tc = fit_cube(set.positions, tc);
  tree.build(set.positions, tc);
  EXPECT_GE(tree.effective_depth(), 5);  // strongly adaptive

  FmmConfig cfg;
  cfg.order = 6;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, set.positions, set.masses);
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions, set.masses);
  std::vector<double> a, b;
  flatten(res, ref, a, b);
  EXPECT_LT(rel_l2_error(a, b), 1e-4);
}

// The far field applied one operator at a time, serially: P2M at the
// effective leaves and M2M in the library's child order; then, per node,
// m2l_multi over its list in list order into a zeroed block, L2L from the
// parent and L2P. HarmonicFarField::evaluate must give the same bits
// whatever its M2L pass does with lane groups, sorting and padding.
std::vector<std::vector<PointValue>> pairwise_far_field(
    const ExpansionContext& ctx, const AdaptiveOctree& tree,
    const InteractionLists& lists,
    const std::vector<std::vector<double>>& charges) {
  const int nrhs = static_cast<int>(charges.size());
  const int nc = ctx.ncoef();
  const std::size_t per_node = static_cast<std::size_t>(nrhs) * nc;
  std::vector<double> M(per_node * tree.num_nodes(), 0.0);
  std::vector<double> L(per_node * tree.num_nodes(), 0.0);
  auto mcoef = [&](int id) { return M.data() + per_node * id; };
  auto lcoef = [&](int id) { return L.data() + per_node * id; };
  const auto pos = tree.sorted_positions();
  std::vector<std::vector<PointValue>> out(
      nrhs, std::vector<PointValue>(tree.num_bodies()));

  auto up = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;
    if (tree.is_effective_leaf(id)) {
      for (int r = 0; r < nrhs; ++r)
        ctx.p2m(n.center, pos.data() + n.begin, charges[r].data() + n.begin,
                static_cast<int>(n.count), mcoef(id) + r * nc);
      return;
    }
    for (int c : n.children) self(self, c);
    for (int c : n.children) {
      if (tree.node(c).count == 0) continue;
      for (int r = 0; r < nrhs; ++r)
        ctx.m2m(tree.node(c).center, n.center, mcoef(c) + r * nc,
                mcoef(id) + r * nc);
    }
  };
  auto down = [&](auto&& self, int id) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;
    for (auto e = lists.m2l_offset[id]; e < lists.m2l_offset[id + 1]; ++e) {
      const int s = lists.m2l_sources[e];
      ctx.m2l_multi(tree.node(s).center, n.center, mcoef(s), lcoef(id), nrhs,
                    nc);
    }
    if (n.parent >= 0)
      for (int r = 0; r < nrhs; ++r)
        ctx.l2l(tree.node(n.parent).center, n.center,
                lcoef(n.parent) + r * nc, lcoef(id) + r * nc);
    if (tree.is_effective_leaf(id)) {
      for (std::uint32_t b = n.begin; b < n.begin + n.count; ++b)
        for (int r = 0; r < nrhs; ++r)
          out[r][b] = ctx.l2p(n.center, lcoef(id) + r * nc, pos[b]);
      return;
    }
    for (int c : n.children) self(self, c);
  };
  up(up, tree.root());
  down(down, tree.root());
  return out;
}

TEST(Fmm, FarFieldBitIdenticalToPairwiseSweep) {
  Rng rng(35);
  PlummerOptions opt;
  opt.scale_radius = 0.05;
  opt.center = {0.5, 0.5, 0.5};
  auto set = plummer(3000, rng, opt);
  AdaptiveOctree tree;
  tree.build(set.positions, fit_cube(set.positions, unit_config(24)));
  FmmConfig cfg;
  cfg.order = 4;
  const InteractionLists lists =
      build_interaction_lists(tree, cfg.traversal);

  // A target count off every lane width gives a short last group; list
  // lengths vary, so lanes end early inside groups as well.
  int targets = 0;
  std::uint32_t shortest = ~0u, longest = 0;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const auto len = lists.m2l_offset[id + 1] - lists.m2l_offset[id];
    if (len == 0) continue;
    ++targets;
    shortest = std::min(shortest, len);
    longest = std::max(longest, len);
  }
  ASSERT_NE(targets % 4, 0) << targets << " M2L targets";
  ASSERT_LT(shortest, longest);

  const HarmonicFarField far(cfg);
  for (int nrhs : {1, 4}) {
    std::vector<std::vector<double>> charges(
        nrhs, std::vector<double>(tree.num_bodies()));
    for (auto& q : charges)
      for (auto& v : q) v = rng.uniform(-1.0, 1.0);
    const auto want = pairwise_far_field(far.context(), tree, lists, charges);
    for (int threads : {1, 4}) {
      OmpThreads scoped(threads);
      std::vector<std::vector<PointValue>> got;
      far.evaluate(tree, lists, charges, got);
      ASSERT_EQ(got.size(), want.size());
      for (int r = 0; r < nrhs; ++r)
        EXPECT_EQ(std::memcmp(got[r].data(), want[r].data(),
                              want[r].size() * sizeof(PointValue)),
                  0)
            << "nrhs=" << nrhs << " threads=" << threads << " rhs " << r;
    }
  }
}

TEST(Fmm, CollapsedTreeStillCorrect) {
  // Collapse operations change the near/far split but not the answer.
  Rng rng(33);
  const int n = 1000;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(16));

  FmmConfig cfg;
  cfg.order = 5;
  GravitySolver solver(cfg, default_node());
  const auto before = solver.solve(tree, set.positions, set.masses);

  int collapsed = 0;
  for (int id = 0; id < tree.num_nodes() && collapsed < 5; ++id) {
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
  const auto after = solver.solve(tree, set.positions, set.masses);
  EXPECT_GT(after.stats.p2p_interactions, before.stats.p2p_interactions);

  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(after.potential[i], before.potential[i],
                5e-4 * std::abs(before.potential[i]));
}

TEST(Fmm, UniformTreeMatchesAdaptiveAnswers) {
  Rng rng(34);
  const int n = 1200;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);

  FmmConfig cfg;
  cfg.order = 5;
  GravitySolver solver(cfg, default_node());

  AdaptiveOctree adaptive;
  adaptive.build(set.positions, unit_config(20));
  AdaptiveOctree uniform;
  uniform.build_uniform(set.positions, unit_config(20), 2);

  const auto ra = solver.solve(adaptive, set.positions, set.masses);
  const auto ru = solver.solve(uniform, set.positions, set.masses);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(ra.potential[i], ru.potential[i],
                1e-3 * std::abs(ra.potential[i]));
}

TEST(Fmm, GradientIsNegativeOfForceSymmetry) {
  // Newton's third law: sum of m_i * G * grad phi_i vanishes.
  Rng rng(35);
  const int n = 800;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(20));
  FmmConfig cfg;
  cfg.order = 8;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, set.positions, set.masses);

  Vec3 total;
  double scale = 0.0;
  for (int i = 0; i < n; ++i) {
    total += set.masses[i] * res.gradient[i];
    scale += set.masses[i] * norm(res.gradient[i]);
  }
  EXPECT_LT(norm(total) / scale, 1e-4);
}

TEST(Fmm, TwoBodiesExact) {
  std::vector<Vec3> pos{{0.2, 0.2, 0.2}, {0.8, 0.8, 0.8}};
  std::vector<double> q{2.0, 3.0};
  AdaptiveOctree tree;
  tree.build(pos, unit_config(1));
  FmmConfig cfg;
  cfg.order = 4;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, pos, q);
  const double d = norm(pos[1] - pos[0]);
  EXPECT_NEAR(res.potential[0], 3.0 / d, 2e-2 * (3.0 / d));
  EXPECT_NEAR(res.potential[1], 2.0 / d, 2e-2 * (2.0 / d));
}

TEST(Fmm, SingleBodyIsZero) {
  std::vector<Vec3> pos{{0.5, 0.5, 0.5}};
  std::vector<double> q{1.0};
  AdaptiveOctree tree;
  tree.build(pos, unit_config(8));
  FmmConfig cfg;
  cfg.order = 3;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, pos, q);
  EXPECT_EQ(res.potential[0], 0.0);
  EXPECT_EQ(res.gradient[0], Vec3{});
}

TEST(Fmm, SofteningChangesOnlyNearField) {
  Rng rng(36);
  const int n = 600;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(30));
  FmmConfig cfg;
  cfg.order = 5;
  GravitySolver plain(cfg, default_node(), GravityKernel(0.0));
  GravitySolver soft(cfg, default_node(), GravityKernel(1e-3));
  const auto a = plain.solve(tree, set.positions, set.masses);
  const auto b = soft.solve(tree, set.positions, set.masses);
  const auto ref = gravity_direct_all(GravityKernel(1e-3), set.positions,
                                      set.masses);
  double max_rel = 0.0;
  for (int i = 0; i < n; ++i)
    max_rel = std::max(max_rel, std::abs(b.potential[i] - ref[i].pot) /
                                    std::abs(ref[i].pot));
  EXPECT_LT(max_rel, 5e-3);
  // And softened differs from unsoftened (it did something).
  double diff = 0.0;
  for (int i = 0; i < n; ++i) diff += std::abs(a.potential[i] - b.potential[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(Fmm, TimesAndStatsPopulated) {
  Rng rng(37);
  auto set = uniform_cube(3000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(40));
  FmmConfig cfg;
  cfg.order = 4;
  GravitySolver solver(cfg, default_node(2));
  const auto res = solver.solve(tree, set.positions, set.masses);
  EXPECT_GT(res.times.cpu_seconds, 0.0);
  EXPECT_GT(res.times.gpu_seconds, 0.0);
  EXPECT_EQ(res.times.compute_seconds(),
            std::max(res.times.cpu_seconds, res.times.gpu_seconds));
  EXPECT_GT(res.stats.nodes, 0);
  EXPECT_GT(res.stats.m2l_pairs, 0u);
  EXPECT_EQ(res.gpu.per_gpu.size(), 2u);
}

// Every ObservedStepTimes field as raw bits, so EXPECT_EQ compares exactly.
std::vector<std::uint64_t> time_bits(const ObservedStepTimes& t) {
  const OpCounts& c = t.counts;
  std::vector<std::uint64_t> bits = {
      c.p2m, c.p2m_bodies, c.m2m, c.m2l, c.l2l, c.l2p, c.l2p_bodies,
      c.p2p_interactions, c.p2p_node_pairs,
      static_cast<std::uint64_t>(t.transfer_retries)};
  for (const double v :
       {t.cpu_seconds, t.gpu_seconds, t.cpu_p2p_seconds, t.overlap_seconds,
        t.overlap_cpu_seconds, t.overlap_near_seconds, t.t_p2m, t.t_m2m,
        t.t_m2l, t.t_l2l, t.t_l2p})
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

TEST(Fmm, SolveAndObserveStepReportTheSameTimes) {
  // A solve and the timing-only observation of the same tree assemble the
  // step's times in one place, so they agree bit for bit whether the node
  // charges the serialized timeline or the overlap DAG's makespan.
  Rng rng(43);
  PlummerOptions opt;
  opt.scale_radius = 0.05;
  opt.center = {0.5, 0.5, 0.5};
  const auto set = plummer(3000, rng, opt);
  AdaptiveOctree tree;
  tree.build(set.positions, fit_cube(set.positions, unit_config(32)));
  FmmConfig cfg;
  cfg.order = 4;
  const ExpansionContext ctx(cfg.order);
  const auto lists = build_interaction_lists(tree, cfg.traversal);
  for (const OverlapMode mode : {OverlapMode::kOff, OverlapMode::kOn}) {
    SCOPED_TRACE(mode == OverlapMode::kOn ? "overlap" : "serialized");
    GravitySolver solver(cfg, default_node(2));
    solver.node().set_overlap(mode);
    const auto res = solver.solve(tree, set.positions, set.masses);
    const auto observed = solver.node().observe_step(
        ctx, tree, lists, GravityKernel::flops_per_interaction(), 1);
    EXPECT_EQ(time_bits(res.times), time_bits(observed));
    EXPECT_EQ(observed.overlap_seconds > 0.0, mode == OverlapMode::kOn);
    EXPECT_EQ(res.dag != nullptr, mode == OverlapMode::kOn);
  }
}

TEST(Fmm, TransferTimelineIsPopulatedAndConsistent) {
  // Section III.D: launch -> (CPU || upload+kernel) -> blocking gather.
  Rng rng(41);
  auto set = uniform_cube(4000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(40));
  FmmConfig cfg;
  cfg.order = 4;
  GravitySolver solver(cfg, default_node(2));
  const auto res = solver.solve(tree, set.positions, set.masses);

  const auto& tl = res.gpu.timeline;
  EXPECT_GT(tl.launch_seconds, 0.0);
  EXPECT_GT(tl.download_seconds, 0.0);
  // Kernel completion includes the upload, so it can't be earlier than the
  // pure kernel time.
  EXPECT_GE(tl.gpu_done_seconds, res.gpu.max_kernel_seconds);
  // The full step is at least the paper's Compute Time.
  EXPECT_GE(tl.step_seconds(res.times.cpu_seconds),
            res.times.compute_seconds());
}

TEST(Fmm, GpuTimeShrinksRelativeToSerialDirectWork) {
  // The headline effect of the heterogeneous design: offloaded direct work
  // runs far faster on the GPU system than the serial CPU baseline would
  // run it.
  Rng rng(42);
  auto set = uniform_cube(8000, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(64));
  FmmConfig cfg;
  cfg.order = 4;
  GravitySolver solver(cfg, default_node(4));
  const auto res = solver.solve(tree, set.positions, set.masses);

  const auto& cpu = solver.node().cpu();
  const double serial_direct = cpu.task_seconds(
      static_cast<double>(res.stats.p2p_interactions) * cpu.p2p_flops, 1);
  EXPECT_LT(res.times.gpu_seconds, serial_direct / 10.0);
}

TEST(Fmm, SolveRejectsMismatchedInputs) {
  Rng rng(38);
  auto set = uniform_cube(100, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(10));
  FmmConfig cfg;
  GravitySolver solver(cfg, default_node());
  std::vector<double> bad(50, 1.0);
  EXPECT_THROW(solver.solve(tree, set.positions, bad), std::invalid_argument);
}

TEST(Fmm, MixedSignChargesAccurate) {
  // Electrostatics-style workload: charges of both signs, where monopole
  // terms largely cancel and the higher multipoles carry the field -- a
  // stress test for the expansion accuracy that gravity (all-positive
  // charges) never exercises.
  Rng rng(45);
  const int n = 1500;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  std::vector<double> q(n);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    q[i] = rng.uniform(-1.0, 1.0);
    sum += q[i];
  }
  q[0] -= sum;  // exactly neutral overall

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(25));
  FmmConfig cfg;
  cfg.order = 7;
  GravitySolver solver(cfg, default_node());
  const auto res = solver.solve(tree, set.positions, q);
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions, q);
  std::vector<double> a, b;
  flatten(res, ref, a, b);
  EXPECT_LT(rel_l2_error(a, b), 5e-5);
}

TEST(Fmm, AccuracyHoldsAcrossThetaRange) {
  Rng rng(46);
  const int n = 1000;
  auto set = uniform_cube(n, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(20));
  const auto ref = gravity_direct_all(GravityKernel{}, set.positions,
                                      set.masses);
  double prev_err = -1.0;
  for (double theta : {0.75, 0.55, 0.35}) {
    FmmConfig cfg;
    cfg.order = 5;
    cfg.traversal.theta = theta;
    GravitySolver solver(cfg, default_node());
    const auto res = solver.solve(tree, set.positions, set.masses);
    std::vector<double> a, b;
    flatten(res, ref, a, b);
    const double err = rel_l2_error(a, b);
    if (prev_err >= 0.0) {
      EXPECT_LT(err, prev_err) << "theta=" << theta;
    }
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-5);  // theta = 0.35, p = 5
}

TEST(Fmm, DeterministicAcrossRuns) {
  Rng rng(39);
  auto set = uniform_cube(800, rng, {0.5, 0.5, 0.5}, 0.5);
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(25));
  FmmConfig cfg;
  cfg.order = 5;
  GravitySolver solver(cfg, default_node());
  const auto a = solver.solve(tree, set.positions, set.masses);
  const auto b = solver.solve(tree, set.positions, set.masses);
  for (std::size_t i = 0; i < a.potential.size(); ++i)
    EXPECT_EQ(a.potential[i], b.potential[i]);
}

}  // namespace
}  // namespace afmm
