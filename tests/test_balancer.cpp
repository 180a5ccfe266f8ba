#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "balance/load_balancer.hpp"
#include "common.hpp"
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

// Full pipeline observation: solve-less timing of the current tree.
ObservedStepTimes observe_tree(const AdaptiveOctree& tree,
                               const NodeSimulator& node,
                               const ExpansionContext& ctx) {
  const auto lists = build_interaction_lists(tree);
  auto t = node.simulate_far_field(ctx, tree, lists);
  std::vector<int> all(lists.p2p.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  double worst = 0.0;
  const int g = static_cast<int>(node.gpus().devices.size());
  const auto parts = partition_p2p_work(lists.p2p, g);
  for (int d = 0; d < g; ++d) {
    const auto shapes = collect_shapes(tree, lists.p2p, parts[d]);
    worst = std::max(
        worst, simulate_kernel(node.gpus().devices[d], shapes, 20.0).seconds);
  }
  t.gpu_seconds = worst;
  return t;
}

class BalancerLoop : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(61);
    set_ = uniform_cube(30000, rng, {0.5, 0.5, 0.5}, 0.5);
    node_ = std::make_unique<NodeSimulator>(CpuModelConfig{},
                                            GpuSystemConfig::uniform(2));
    ctx_ = std::make_unique<ExpansionContext>(4);
  }

  // Run `steps` balancer iterations on a static body set.
  std::vector<LbStepReport> drive(LoadBalancer& lb, AdaptiveOctree& tree,
                                  int steps) {
    std::vector<LbStepReport> out;
    for (int i = 0; i < steps; ++i) {
      const auto obs = observe_tree(tree, *node_, *ctx_);
      out.push_back(lb.post_step(tree, set_.positions, obs, *node_));
    }
    return out;
  }

  ParticleSet set_;
  std::unique_ptr<NodeSimulator> node_;
  std::unique_ptr<ExpansionContext> ctx_;
};

TEST_F(BalancerLoop, SearchConvergesAndBalancesDevices) {
  LoadBalancerConfig cfg;
  cfg.initial_S = 16;  // far from balanced: CPU-heavy
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));

  const auto reports = drive(lb, tree, 25);
  // Search must terminate within kMaxSearchSteps.
  int search_steps = 0;
  for (const auto& r : reports)
    if (r.state_before == LbState::kSearch) ++search_steps;
  EXPECT_LE(search_steps, LoadBalancer::kMaxSearchSteps);
  EXPECT_NE(lb.state(), LbState::kSearch);

  // After settling, CPU and GPU times must be within the relative gap.
  const auto obs = observe_tree(tree, *node_, *ctx_);
  const double gap = std::abs(obs.cpu_seconds - obs.gpu_seconds);
  EXPECT_LT(gap, 0.35 * obs.compute_seconds());
  // And S moved up from the CPU-heavy initial value.
  EXPECT_GT(lb.current_S(), 16);
}

TEST_F(BalancerLoop, ReachesObservationAndGoesQuiet) {
  LoadBalancerConfig cfg;
  cfg.initial_S = 32;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));

  const auto reports = drive(lb, tree, 40);
  EXPECT_EQ(lb.state(), LbState::kObservation);
  // Once in observation on a static workload, nothing should be modified.
  bool quiet = true;
  for (std::size_t i = reports.size() - 5; i < reports.size(); ++i)
    if (reports[i].rebuilt || reports[i].enforce_ops || reports[i].fgo_ops)
      quiet = false;
  EXPECT_TRUE(quiet);
}

TEST_F(BalancerLoop, StaticStrategyNeverTouchesTreeAfterSearch) {
  LoadBalancerConfig cfg;
  cfg.strategy = LbStrategy::kStatic;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 20);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  // Squash the bodies: compute time degrades, but kStatic must do nothing.
  for (auto& p : set_.positions)
    p = Vec3{0.5, 0.5, 0.5} + 0.25 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(set_.positions);
  const auto reports = drive(lb, tree, 5);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.rebuilt);
    EXPECT_EQ(r.enforce_ops, 0);
    EXPECT_EQ(r.fgo_ops, 0);
  }
}

TEST_F(BalancerLoop, EnforceOnlyStrategyReactsToDrift) {
  LoadBalancerConfig cfg;
  cfg.strategy = LbStrategy::kEnforceOnly;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 20);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  for (auto& p : set_.positions)
    p = Vec3{0.5, 0.5, 0.5} + 0.2 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(set_.positions);
  EXPECT_GT(tree.max_leaf_count(), lb.current_S());

  const auto reports = drive(lb, tree, 3);
  int enforce_total = 0;
  for (const auto& r : reports) enforce_total += r.enforce_ops;
  EXPECT_GT(enforce_total, 0);
  EXPECT_LE(tree.max_leaf_count(), lb.current_S());
}

TEST_F(BalancerLoop, FullStrategyRecoversFromDrift) {
  LoadBalancerConfig cfg;
  cfg.strategy = LbStrategy::kFull;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 30);

  const double settled = observe_tree(tree, *node_, *ctx_).compute_seconds();

  // Drift: contract the cloud so the old tree is badly off.
  for (auto& p : set_.positions)
    p = Vec3{0.5, 0.5, 0.5} + 0.3 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(set_.positions);
  const double degraded = observe_tree(tree, *node_, *ctx_).compute_seconds();

  drive(lb, tree, 15);
  const double recovered = observe_tree(tree, *node_, *ctx_).compute_seconds();
  // Balancing must claw back most of the degradation (the contracted cloud
  // is denser, so matching the original time exactly is not expected).
  EXPECT_LT(recovered, degraded);
  EXPECT_LT(recovered, settled * 3.0);
}

TEST_F(BalancerLoop, ReportsCarryLbCosts) {
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  const auto reports = drive(lb, tree, 10);
  // Rebuild steps must be charged a nonzero virtual cost.
  for (const auto& r : reports) {
    if (r.rebuilt) {
      EXPECT_GT(r.lb_seconds, 0.0);
    }
  }
}

TEST_F(BalancerLoop, FgoDisabledNeverAppliesFineGrainedOps) {
  LoadBalancerConfig cfg;
  cfg.enable_fgo = false;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  auto reports = drive(lb, tree, 25);

  // Perturb heavily to force observation-state reactions, then keep going.
  for (auto& p : set_.positions)
    p = Vec3{0.5, 0.5, 0.5} + 0.25 * (p - Vec3{0.5, 0.5, 0.5});
  tree.rebin(set_.positions);
  auto more = drive(lb, tree, 10);
  reports.insert(reports.end(), more.begin(), more.end());
  for (const auto& r : reports) EXPECT_EQ(r.fgo_ops, 0);
}

TEST_F(BalancerLoop, FgoImprovesPredictedComputeWhenUnbalanced) {
  // Engineer an unbalanced tree: settle the balancer, then force a much
  // finer tree (CPU-heavy) and check FineGrainedOptimize's prediction loop
  // claws the predicted compute time back down via collapses.
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 25);

  // Refine everything one level below the balanced point: CPU-heavy.
  AdaptiveOctree fine;
  auto tc = unit_config(std::max(4, lb.current_S() / 4));
  fine.build(set_.positions, tc);
  const auto before = observe_tree(fine, *node_, *ctx_);
  EXPECT_GT(before.cpu_seconds, before.gpu_seconds);

  // Drive the observation state: it should enforce + fine-tune the tree.
  auto reports = drive(lb, fine, 4);
  int fgo = 0;
  for (const auto& r : reports) fgo += r.fgo_ops;
  const auto after = observe_tree(fine, *node_, *ctx_);
  // Whatever route the balancer took (FGO collapses or falling back to
  // incremental rebuilds), the compute time must not be left degraded.
  EXPECT_LT(after.compute_seconds(), before.compute_seconds() * 1.05);
  EXPECT_GE(fgo, 0);
}

// Scale every observed time by `f` (counts untouched): synthetic noise /
// drift that looks like the whole machine got uniformly slower.
ObservedStepTimes scaled(ObservedStepTimes t, double f) {
  t.cpu_seconds *= f;
  t.gpu_seconds *= f;
  t.cpu_p2p_seconds *= f;
  t.t_p2m *= f;
  t.t_m2m *= f;
  t.t_m2l *= f;
  t.t_l2l *= f;
  t.t_l2p *= f;
  return t;
}

TEST_F(BalancerLoop, InBandNoiseKeepsObservationIdle) {
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 40);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  // Observations jittered inside the 5% band AROUND THE RECORDED BEST: the
  // balancer must not touch anything -- no enforcement, no fine tuning, no
  // state change, no shift. (The steady-state compute can already sit near
  // the band edge, so the jitter is anchored to the balancer's own best.)
  double best = lb.post_step(tree, set_.positions,
                             observe_tree(tree, *node_, *ctx_), *node_)
                    .best_compute;
  for (double ratio : {1.04, 0.99, 1.03, 1.01}) {
    auto base = observe_tree(tree, *node_, *ctx_);
    const auto obs = scaled(base, ratio * best / base.compute_seconds());
    const auto r = lb.post_step(tree, set_.positions, obs, *node_);
    EXPECT_EQ(r.state_after, LbState::kObservation) << "ratio=" << ratio;
    EXPECT_FALSE(r.rebuilt);
    EXPECT_EQ(r.enforce_ops, 0);
    EXPECT_EQ(r.fgo_ops, 0);
    EXPECT_FALSE(r.capability_shift);
    EXPECT_DOUBLE_EQ(r.lb_seconds, 0.0);
    best = r.best_compute;
  }
}

TEST_F(BalancerLoop, OutOfBandNoiseWalksEnforcementNotShift) {
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 40);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  // A persistent 25% uniform slowdown is outside the band but below the
  // capability-shift threshold (and the health epoch never moved): the
  // balancer must react through the Section V path -- Enforce_S, prediction,
  // FineGrainedOptimize, falling back to Incremental -- and never through a
  // coefficient reset.
  bool reacted = false;
  for (int i = 0; i < 6; ++i) {
    const auto obs = scaled(observe_tree(tree, *node_, *ctx_), 1.25);
    const auto r = lb.post_step(tree, set_.positions, obs, *node_);
    EXPECT_FALSE(r.capability_shift);
    EXPECT_NE(r.state_after, LbState::kSearch);
    if (r.state_before == LbState::kObservation &&
        (r.lb_seconds > 0.0 || r.fgo_ops > 0))
      reacted = true;
  }
  EXPECT_TRUE(reacted);
}

TEST_F(BalancerLoop, EpochChangeAloneDoesNotTriggerShift) {
  LoadBalancerConfig cfg;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set_.positions, unit_config(cfg.initial_S));
  drive(lb, tree, 40);
  ASSERT_EQ(lb.state(), LbState::kObservation);

  // A fault event that does not change observed behavior (e.g. a transfer
  // window that never fires) bumps the epoch; with no divergence there must
  // be no shift.
  node_->health().fault_epoch++;
  const auto reports = drive(lb, tree, 8);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.capability_shift);
    EXPECT_EQ(r.state_after, LbState::kObservation);
  }
}

TEST(LoadBalancer, IncrementalTransitionRecordsObservedComputeExactly) {
  // Search -> Incremental -> Observation with controlled observations: the
  // dominant-device flip must record exactly min(observed, best) -- the old
  // code wrapped this in a redundant self-min when best was unset.
  Rng rng(99);
  auto set = uniform_cube(2000, rng, {0.5, 0.5, 0.5}, 0.5);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));

  LoadBalancerConfig cfg;
  cfg.strategy = LbStrategy::kFull;
  cfg.enable_fgo = false;
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(cfg.initial_S));

  // Balanced observation: search finishes immediately, best = 1.0.
  ObservedStepTimes balanced;
  balanced.cpu_seconds = 1.0;
  balanced.gpu_seconds = 1.0;
  auto r = lb.post_step(tree, set.positions, balanced, node);
  ASSERT_EQ(r.state_after, LbState::kIncremental);
  EXPECT_DOUBLE_EQ(r.best_compute, 1.0);

  // Dominance flips CPU-ward with a better compute time: the transition to
  // Observation must record that observed time exactly.
  ObservedStepTimes flipped;
  flipped.cpu_seconds = 0.9;
  flipped.gpu_seconds = 0.7;
  r = lb.post_step(tree, set.positions, flipped, node);
  EXPECT_EQ(r.state_after, LbState::kObservation);
  EXPECT_DOUBLE_EQ(r.best_compute, flipped.compute_seconds());

  // Same flip with a WORSE observed time: the previous best must survive.
  LoadBalancer lb2(cfg, TraversalConfig{});
  AdaptiveOctree tree2;
  tree2.build(set.positions, unit_config(cfg.initial_S));
  r = lb2.post_step(tree2, set.positions, balanced, node);
  ASSERT_EQ(r.state_after, LbState::kIncremental);
  ObservedStepTimes worse;
  worse.cpu_seconds = 1.4;
  worse.gpu_seconds = 1.2;
  r = lb2.post_step(tree2, set.positions, worse, node);
  EXPECT_EQ(r.state_after, LbState::kObservation);
  EXPECT_DOUBLE_EQ(r.best_compute, 1.0);
}

TEST(LoadBalancer, OverlapAwareSwitchSelectsTheObjective) {
  // Two balancers digest the same overlap-executed step (event-driven
  // makespan 0.8 vs serialized max 1.0): the overlap-aware one optimizes
  // what the step actually cost, the ablation arm keeps scoring the
  // serialized timeline.
  Rng rng(99);
  auto set = uniform_cube(2000, rng, {0.5, 0.5, 0.5}, 0.5);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));

  ObservedStepTimes obs;
  obs.cpu_seconds = 1.0;
  obs.gpu_seconds = 1.0;
  obs.overlap_seconds = 0.8;
  obs.overlap_cpu_seconds = 0.8;
  obs.overlap_near_seconds = 0.6;
  ASSERT_DOUBLE_EQ(obs.compute_seconds(), 0.8);
  ASSERT_DOUBLE_EQ(obs.serialized_compute_seconds(), 1.0);

  LoadBalancerConfig cfg;
  cfg.strategy = LbStrategy::kFull;
  cfg.enable_fgo = false;
  ASSERT_TRUE(cfg.overlap_aware);  // the default optimizes elapsed time

  LoadBalancer aware(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(cfg.initial_S));
  auto r = aware.post_step(tree, set.positions, obs, node);
  ASSERT_EQ(r.state_after, LbState::kIncremental);  // balanced: search done
  EXPECT_DOUBLE_EQ(r.best_compute, 0.8);

  cfg.overlap_aware = false;
  LoadBalancer serialized(cfg, TraversalConfig{});
  AdaptiveOctree tree2;
  tree2.build(set.positions, unit_config(cfg.initial_S));
  r = serialized.post_step(tree2, set.positions, obs, node);
  ASSERT_EQ(r.state_after, LbState::kIncremental);
  EXPECT_DOUBLE_EQ(r.best_compute, 1.0);
}

TEST(LoadBalancer, ToStringCoversEnums) {
  EXPECT_STREQ(to_string(LbState::kSearch), "search");
  EXPECT_STREQ(to_string(LbState::kIncremental), "incremental");
  EXPECT_STREQ(to_string(LbState::kObservation), "observation");
  EXPECT_STREQ(to_string(LbStrategy::kStatic), "static");
  EXPECT_STREQ(to_string(LbStrategy::kEnforceOnly), "enforce-only");
  EXPECT_STREQ(to_string(LbStrategy::kFull), "full");
}

// ------------------------------------------------ bench replay loop ----

// A cold collapse in closed form: each body falls along its direction from
// r0 to a small core radius on its shell's free-fall time, then oscillates
// about it, while some bodies are ejected into an expanding halo. Time runs
// at `dt` per step up to step `loud`, then a thousand times slower: a few
// bodies still change leaf each step, but leaves seldom empty.
class Collapse {
 public:
  Collapse(std::size_t n, double dt, std::size_t loud)
      : dt_(dt), loud_(loud), pos_(n) {
    Rng rng(2013);
    for (std::size_t i = 0; i < n; ++i) {
      // Plummer radius, truncated to 4.
      const double u = rng.uniform(0.02, 1.0);
      const double r0 =
          std::min(4.0, 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0));
      const double z = rng.uniform(-1, 1);
      const double phi = rng.uniform(0.0, 6.283185307179586);
      const double s = std::sqrt(1.0 - z * z);
      bodies_.push_back({Vec3{s * std::cos(phi), s * std::sin(phi), z}, r0,
                         1.5 * std::sqrt(std::pow(r0 * r0 + 1.0, 1.5) / 2.0),
                         0.05 * (0.5 + rng.uniform()) * std::sqrt(r0),
                         rng.uniform() < 0.15 ? rng.uniform(0.3, 1.2) : 0.0,
                         rng.uniform(2.0, 6.0), rng.uniform(0.0, 6.3)});
    }
  }

  std::span<const Vec3> operator()(std::size_t step) {
    const double t =
        dt_ * (static_cast<double>(std::min(step, loud_)) +
               1e-3 * static_cast<double>(step - std::min(step, loud_)));
    for (std::size_t i = 0; i < bodies_.size(); ++i) {
      const Body& b = bodies_[i];
      const double x = t / b.tff;
      const double r =
          x < 1.0 ? std::max(b.r0 * std::pow(1.0 - x * x, 2.0 / 3.0), b.rcore)
                  : b.rcore * (1.0 + 0.3 * std::sin(b.omega * (t - b.tff) +
                                                    b.phase)) +
                        b.vej * (t - b.tff);
      pos_[i] = std::min(r, 15.0) * b.dir;
    }
    return pos_;
  }

 private:
  struct Body {
    Vec3 dir;
    double r0, tff, rcore, vej, omega, phase;
  };
  double dt_;
  std::size_t loud_;
  std::vector<Body> bodies_;
  std::vector<Vec3> pos_;
};

TEST(ReplayStrategy, SharedListCacheMatchesUncachedLoop) {
  constexpr std::size_t kBodies = 20000;
  constexpr std::size_t kSteps = 40;
  TreeConfig tc;
  tc.root_center = {0, 0, 0};
  tc.root_half = 16.0;
  const NodeSimulator node(bench::system_a_cpu(10),
                           GpuSystemConfig::uniform(4));
  const ExpansionContext ctx(4);
  const TraversalConfig traversal;

  bool observation = false, empties = false, refreshes = false;
  int enforce_ops = 0, fgo_ops = 0;
  for (LbStrategy strategy :
       {LbStrategy::kStatic, LbStrategy::kEnforceOnly, LbStrategy::kFull}) {
    SCOPED_TRACE(to_string(strategy));
    LoadBalancerConfig lb_config;
    lb_config.strategy = strategy;
    lb_config.initial_S = 64;
    Collapse cached_cloud(kBodies, 0.25, 30);
    const auto got = bench::replay_strategy(cached_cloud, kSteps, tc,
                                            lb_config, node, ctx, traversal);

    // The loop without a cache: fresh lists for every observation, and a
    // balancer whose dry runs walk the tree themselves.
    Collapse cloud(kBodies, 0.25, 30);
    auto observe = [&](const AdaptiveOctree& t) {
      return node.observe_step(ctx, t, build_interaction_lists(t, traversal),
                               20.0, 1);
    };
    AdaptiveOctree tree;
    TreeConfig first = tc;
    first.leaf_capacity = lb_config.initial_S;
    tree.build(cloud(0), first);
    LoadBalancer balancer(lb_config, traversal);
    ObservedStepTimes observed = observe(tree);
    std::uint64_t observed_structure = tree.structure_version();
    ASSERT_EQ(got.size(), kSteps);
    for (std::size_t step = 1; step <= kSteps; ++step) {
      const std::span<const Vec3> pos = cloud(step);
      std::vector<char> empty(tree.num_nodes());
      for (int i = 0; i < tree.num_nodes(); ++i)
        empty[i] = tree.node(i).count == 0;
      tree.rebin(pos);
      bool flipped = false;
      for (int i = 0; i < tree.num_nodes(); ++i)
        flipped |= empty[i] != (tree.node(i).count == 0);

      const LbStepReport lb = balancer.post_step(tree, pos, observed, node);
      // With no node flipped between empty and non-empty and the structure
      // last observed, the shared cache refreshes its counts, not its lists.
      empties |= flipped;
      refreshes |= !flipped && tree.structure_version() == observed_structure;
      observed_structure = tree.structure_version();
      observed = observe(tree);
      observation |= lb.state_after == LbState::kObservation;
      enforce_ops += lb.enforce_ops;
      fgo_ops += lb.fgo_ops;

      const bench::ReplayRecord& r = got[step - 1];
      SCOPED_TRACE(step);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.compute_seconds),
                std::bit_cast<std::uint64_t>(observed.compute_seconds()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.cpu_seconds),
                std::bit_cast<std::uint64_t>(observed.cpu_seconds));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.gpu_seconds),
                std::bit_cast<std::uint64_t>(observed.gpu_seconds));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.lb_seconds),
                std::bit_cast<std::uint64_t>(0.0 + lb.lb_seconds));
      EXPECT_EQ(r.S, lb.S);
      EXPECT_EQ(r.state, lb.state_after);
    }
  }
  // The trajectory covers what the cache must get right: Observation with
  // Enforce_S and FGO structure changes, and rebins with and without a
  // node flipping between empty and non-empty.
  EXPECT_TRUE(observation);
  EXPECT_GT(enforce_ops, 0);
  EXPECT_GT(fgo_ops, 0);
  EXPECT_TRUE(empties);
  EXPECT_TRUE(refreshes);
}

}  // namespace
}  // namespace afmm
