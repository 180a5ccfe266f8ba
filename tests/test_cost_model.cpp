#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "balance/cost_model.hpp"
#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
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

ObservedStepTimes observe(const AdaptiveOctree& tree, const NodeSimulator& node,
                          const ExpansionContext& ctx) {
  const auto lists = build_interaction_lists(tree);
  auto t = node.simulate_far_field(ctx, tree, lists);
  // GPU time from the cycle model, without running numerics.
  std::vector<int> all(lists.p2p.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  const auto shapes = collect_shapes(tree, lists.p2p, all);
  t.gpu_seconds = simulate_kernel(node.gpus().devices[0], shapes, 20.0).seconds;
  return t;
}

TEST(CostModel, CoefficientsAreObservedRatios) {
  CostModel model(1.0);  // no smoothing: coefficient == last sample
  ObservedStepTimes t;
  t.cpu_seconds = 1.0;
  t.gpu_seconds = 0.5;
  t.t_p2m = 0.2;
  t.t_m2m = 0.1;
  t.t_m2l = 1.2;
  t.t_l2l = 0.1;
  t.t_l2p = 0.4;
  t.counts.p2m_bodies = 1000;
  t.counts.m2m = 50;
  t.counts.m2l = 600;
  t.counts.l2l = 50;
  t.counts.l2p_bodies = 1000;
  t.counts.p2p_interactions = 100000;
  model.observe(t, 2);

  const auto& c = model.coefficients();
  EXPECT_DOUBLE_EQ(c.p2m_per_body, 0.2 / 1000);
  EXPECT_DOUBLE_EQ(c.m2m, 0.1 / 50);
  EXPECT_DOUBLE_EQ(c.m2l, 1.2 / 600);
  EXPECT_DOUBLE_EQ(c.l2p_per_body, 0.4 / 1000);
  EXPECT_DOUBLE_EQ(c.p2p, 0.5 / 100000);
  EXPECT_DOUBLE_EQ(c.cpu_efficiency, 2.0 / 2.0);  // work 2.0s / (1.0s * 2)

  // Self-prediction reproduces the observation.
  EXPECT_NEAR(model.predict_cpu(t.counts, 2), 1.0, 1e-12);
  EXPECT_NEAR(model.predict_gpu(t.counts), 0.5, 1e-12);
  EXPECT_NEAR(model.predict_compute(t.counts, 2), 1.0, 1e-12);
}

TEST(CostModel, ZeroCountsKeepOldCoefficients) {
  CostModel model(1.0);
  ObservedStepTimes t;
  t.t_m2l = 1.0;
  t.counts.m2l = 100;
  t.counts.p2p_interactions = 10;
  t.gpu_seconds = 0.1;
  t.cpu_seconds = 1.0;
  model.observe(t, 1);
  const double before = model.coefficients().m2l;

  ObservedStepTimes empty;
  empty.cpu_seconds = 0.5;
  model.observe(empty, 1);
  EXPECT_DOUBLE_EQ(model.coefficients().m2l, before);
}

TEST(CostModel, EwmaSmoothsSamples) {
  CostModel model(0.5);
  ObservedStepTimes t;
  t.counts.m2l = 1;
  t.cpu_seconds = 1;
  t.t_m2l = 1.0;
  model.observe(t, 1);
  t.t_m2l = 3.0;
  model.observe(t, 1);
  EXPECT_DOUBLE_EQ(model.coefficients().m2l, 2.0);  // 0.5*3 + 0.5*1
}

TEST(CostModel, PredictsLocallyModifiedTreeWithinTolerance) {
  // The balancer only ever predicts one step ahead on a locally modified
  // version of the CURRENT tree (a FineGrainedOptimize batch). Derive
  // coefficients, collapse a small batch of bottom parents, and require the
  // prediction to track the machine model's "truth" on the modified tree.
  Rng rng(51);
  auto set = uniform_cube(20000, rng, {0.5, 0.5, 0.5}, 0.5);
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(32));
  CostModel model(1.0);
  model.observe(observe(tree, node, ctx), node.cpu().num_cores);

  int collapsed = 0;
  for (int id = 0; id < tree.num_nodes() && collapsed < 8; ++id) {
    if (tree.is_effective_leaf(id)) continue;
    bool bottom = true;
    for (int c : tree.node(id).children)
      if (!tree.is_effective_leaf(c)) bottom = false;
    if (bottom) {
      tree.collapse(id);
      ++collapsed;
    }
  }
  ASSERT_EQ(collapsed, 8);

  const auto truth = observe(tree, node, ctx);
  const auto counts = count_operations(tree, build_interaction_lists(tree));
  const double pred_cpu = model.predict_cpu(counts, node.cpu().num_cores);
  const double pred_gpu = model.predict_gpu(counts);
  EXPECT_NEAR(pred_cpu, truth.cpu_seconds, 0.30 * truth.cpu_seconds);
  EXPECT_NEAR(pred_gpu, truth.gpu_seconds, 0.30 * truth.gpu_seconds);
}

TEST(CostModel, GpuCoefficientIsShapeDependent) {
  // The paper (Section IV.D) observes that the P2P coefficient reflects the
  // GPU's efficiency on the CURRENT tree: small leaves waste lanes in ragged
  // blocks. A coefficient learned on a well-filled tree must therefore
  // UNDER-predict the kernel time of a much finer tree -- that discrepancy
  // is a model feature, not a bug, and is why the balancer re-observes every
  // step instead of trusting stale coefficients.
  Rng rng(53);
  auto set = uniform_cube(20000, rng, {0.5, 0.5, 0.5}, 0.5);
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));

  AdaptiveOctree coarse;
  coarse.build(set.positions, unit_config(48));
  CostModel model(1.0);
  model.observe(observe(coarse, node, ctx), node.cpu().num_cores);

  AdaptiveOctree fine;
  fine.build(set.positions, unit_config(12));
  const auto truth = observe(fine, node, ctx);
  const auto counts = count_operations(fine, build_interaction_lists(fine));
  EXPECT_LT(model.predict_gpu(counts), truth.gpu_seconds);
}

TEST(CostModel, PredictionTracksCollapseDirection) {
  // Collapsing nodes must predict less CPU and more GPU time -- the paper's
  // FineGrainedOptimize depends on exactly this signal.
  Rng rng(52);
  auto set = uniform_cube(10000, rng, {0.5, 0.5, 0.5}, 0.5);
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(32));
  CostModel model(1.0);
  model.observe(observe(tree, node, ctx), node.cpu().num_cores);

  const auto lists0 = build_interaction_lists(tree);
  const auto counts0 = count_operations(tree, lists0);

  int collapsed = 0;
  for (int id = 0; id < tree.num_nodes() && collapsed < 20; ++id) {
    if (tree.is_effective_leaf(id)) continue;
    bool bottom = true;
    for (int c : tree.node(id).children)
      if (!tree.is_effective_leaf(c)) bottom = false;
    if (bottom) {
      tree.collapse(id);
      ++collapsed;
    }
  }
  ASSERT_GT(collapsed, 10);
  const auto lists1 = build_interaction_lists(tree);
  const auto counts1 = count_operations(tree, lists1);

  EXPECT_LT(model.predict_cpu(counts1, 10), model.predict_cpu(counts0, 10));
  EXPECT_GT(model.predict_gpu(counts1), model.predict_gpu(counts0));
}

TEST(CostModel, NonFiniteTimesNeverPoisonCoefficients) {
  CostModel model(1.0);
  ObservedStepTimes good;
  good.t_m2l = 1.0;
  good.counts.m2l = 100;
  good.gpu_seconds = 0.1;
  good.counts.p2p_interactions = 10;
  good.cpu_seconds = 1.0;
  model.observe(good, 4);
  const auto before = model.coefficients();

  ObservedStepTimes bad = good;
  bad.t_m2l = std::numeric_limits<double>::quiet_NaN();
  bad.gpu_seconds = std::numeric_limits<double>::infinity();
  bad.t_p2m = -1.0;  // negative totals are rejected too
  bad.counts.p2m_bodies = 10;
  model.observe(bad, 4);

  const auto& after = model.coefficients();
  EXPECT_DOUBLE_EQ(after.m2l, before.m2l);
  EXPECT_DOUBLE_EQ(after.p2p, before.p2p);
  EXPECT_DOUBLE_EQ(after.p2m_per_body, 0.0);
  EXPECT_TRUE(std::isfinite(model.predict_compute(good.counts, 4)));
}

TEST(CostModel, CpuFallbackStepDoesNotZeroTheGpuCoefficient) {
  CostModel model(1.0);
  ObservedStepTimes gpu_step;
  gpu_step.gpu_seconds = 0.5;
  gpu_step.counts.p2p_interactions = 1000;
  gpu_step.cpu_seconds = 0.5;
  model.observe(gpu_step, 4);
  const double p2p = model.coefficients().p2p;
  ASSERT_GT(p2p, 0.0);

  // All GPUs lost: the same interactions ran on the CPU. The GPU coefficient
  // must survive untouched (a zero sample would predict a free GPU), and the
  // CPU near-field coefficient is learned instead.
  ObservedStepTimes fallback_step;
  fallback_step.cpu_p2p_seconds = 2.0;
  fallback_step.counts.p2p_interactions = 1000;
  fallback_step.cpu_seconds = 0.5;
  model.observe(fallback_step, 4);
  EXPECT_DOUBLE_EQ(model.coefficients().p2p, p2p);
  EXPECT_DOUBLE_EQ(model.coefficients().p2p_cpu, 2.0 / 1000);
  EXPECT_DOUBLE_EQ(model.predict_near(fallback_step.counts),
                   0.5 + 2.0);  // both live only across the transition
}

TEST(CostModel, ResetDropsEverything) {
  CostModel model(0.5);
  ObservedStepTimes t;
  t.t_m2l = 1.0;
  t.counts.m2l = 10;
  t.cpu_seconds = 1.0;
  model.observe(t, 2);
  ASSERT_TRUE(model.ready());
  model.reset();
  EXPECT_FALSE(model.ready());
  EXPECT_EQ(model.observations(), 0);
  EXPECT_DOUBLE_EQ(model.coefficients().m2l, 0.0);
  // The smoothing constant survives: the next observation seeds cleanly.
  model.observe(t, 2);
  EXPECT_DOUBLE_EQ(model.coefficients().m2l, 0.1);
}

TEST(CostModel, NotReadyBeforeFirstObservation) {
  CostModel model;
  EXPECT_FALSE(model.ready());
  ObservedStepTimes t;
  model.observe(t, 1);
  EXPECT_TRUE(model.ready());
  EXPECT_EQ(model.observations(), 1);
}

// Canonical observation with the overlap fields filled the way the machine
// model fills them.
ObservedStepTimes overlap_obs() {
  ObservedStepTimes t;
  t.t_p2m = 0.2;
  t.t_m2m = 0.2;
  t.t_m2l = 0.8;
  t.t_l2l = 0.2;
  t.t_l2p = 0.2;
  t.counts.p2m_bodies = 1000;
  t.counts.m2m = 100;
  t.counts.m2l = 800;
  t.counts.l2l = 100;
  t.counts.l2p_bodies = 1000;
  t.counts.p2p_interactions = 50000;
  t.cpu_seconds = 1.0;       // (0.4 + 1.2) work on 2 cores, eff 0.8
  t.gpu_seconds = 0.5;
  t.overlap_seconds = 0.9;
  t.overlap_cpu_seconds = 0.9;   // work 1.6 / (0.9 * 2) ~= 0.889 eff
  t.overlap_near_seconds = 0.52; // kernel 0.5 + 0.02 lane overhead
  return t;
}

TEST(CostModel, OverlapCoefficientsAreObservedRatios) {
  CostModel model(1.0);
  const auto t = overlap_obs();
  model.observe(t, 2);
  const auto& c = model.coefficients();
  EXPECT_DOUBLE_EQ(c.overlap_efficiency, 1.6 / (0.9 * 2));
  EXPECT_DOUBLE_EQ(c.near_overhead_seconds, 0.52 - 0.5);
  EXPECT_EQ(model.overlap_observations(), 1);

  // Self-prediction: the overlap predictor reproduces the event-driven step.
  EXPECT_NEAR(model.predict_far_overlap(t.counts, 2), 0.9, 1e-12);
  EXPECT_NEAR(model.predict_compute_overlap(t.counts, 2), 0.9, 1e-12);
}

TEST(CostModel, SerializedStepsNeverTouchOverlapCoefficients) {
  CostModel model(1.0);
  auto t = overlap_obs();
  t.overlap_seconds = 0.0;  // serialized step: overlap executor never ran
  t.overlap_cpu_seconds = 0.0;
  t.overlap_near_seconds = 0.0;
  model.observe(t, 2);
  EXPECT_EQ(model.overlap_observations(), 0);
  EXPECT_DOUBLE_EQ(model.coefficients().overlap_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(model.coefficients().near_overhead_seconds, 0.0);
  // Before any overlap observation the overlap predictor falls back to the
  // serialized efficiency.
  EXPECT_NEAR(model.predict_far_overlap(t.counts, 2),
              model.predict_far(t.counts, 2), 1e-12);
}

TEST(CostModel, OverlapPredictionNeverBelowEitherSide) {
  CostModel model(1.0);
  const auto t = overlap_obs();
  model.observe(t, 2);
  const double pred = model.predict_compute_overlap(t.counts, 2);
  EXPECT_GE(pred, model.predict_gpu(t.counts) - 1e-12);
  EXPECT_GE(pred, model.predict_far_overlap(t.counts, 2) - 1e-12);
}

TEST(CostModel, SnapshotRoundTripsOverlapState) {
  CostModel model(1.0);
  model.observe(overlap_obs(), 2);
  const auto snap = model.snapshot();
  EXPECT_EQ(snap.overlap_observations, 1);
  CostModel other;
  other.restore(snap);
  EXPECT_EQ(other.overlap_observations(), 1);
  const auto& a = model.coefficients();
  const auto& b = other.coefficients();
  EXPECT_DOUBLE_EQ(a.overlap_efficiency, b.overlap_efficiency);
  EXPECT_DOUBLE_EQ(a.near_overhead_seconds, b.near_overhead_seconds);
}

}  // namespace
}  // namespace afmm
