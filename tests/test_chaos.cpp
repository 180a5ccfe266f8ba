// Deterministic chaos tests: kill devices mid-run and check the balancer
// re-balances the surviving machine, and that the CPU fallback is bit-exact.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "balance/load_balancer.hpp"
#include "core/fmm_solver.hpp"
#include "core/simulation.hpp"
#include "dist/distributions.hpp"
#include "faults/fault_injector.hpp"
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
  return node.observe_step(ctx, tree, build_interaction_lists(tree));
}

TEST(Chaos, KillingOneOfTwoGpusTriggersShiftAndRecovers) {
  Rng rng(61);
  auto set = uniform_cube(20000, rng, {0.5, 0.5, 0.5}, 0.5);
  const ExpansionContext ctx(4);
  const CpuModelConfig cpu;
  const auto gpus = GpuSystemConfig::uniform(2);

  // Reference: a machine that never had GPU 0, balanced from scratch. Its
  // settled compute time approximates the degraded machine's optimum.
  NodeSimulator ref_node(cpu, gpus);
  ref_node.health().gpus[0].alive = false;
  LoadBalancerConfig cfg;
  LoadBalancer ref_lb(cfg, TraversalConfig{});
  AdaptiveOctree ref_tree;
  ref_tree.build(set.positions, unit_config(cfg.initial_S));
  for (int i = 0; i < 40; ++i)
    ref_lb.post_step(ref_tree, set.positions, observe(ref_tree, ref_node, ctx),
                     ref_node);
  const double ref_compute = observe(ref_tree, ref_node, ctx).compute_seconds();

  // Chaos run: settle on the healthy 2-GPU machine, then lose GPU 0.
  NodeSimulator node(cpu, gpus);
  FaultSchedule sched;
  sched.gpu_loss(30, 0);
  FaultInjector injector(sched, 0x5eed);
  LoadBalancer lb(cfg, TraversalConfig{});
  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(cfg.initial_S));

  bool shift_seen = false;
  int shift_step = -1;
  for (int step = 0; step < 75; ++step) {
    injector.advance_to(step, node.health());
    const auto r =
        lb.post_step(tree, set.positions, observe(tree, node, ctx), node);
    if (r.capability_shift && !shift_seen) {
      shift_seen = true;
      shift_step = step;
      EXPECT_EQ(r.state_after, LbState::kSearch);
    }
  }
  ASSERT_EQ(node.health().num_alive_gpus(), 1);
  // The shift must be detected within a few steps of the loss -- the EWMA
  // needs at most shift_min_observations fresh looks at the broken machine.
  ASSERT_TRUE(shift_seen);
  EXPECT_GE(shift_step, 30);
  EXPECT_LE(shift_step, 30 + cfg.shift_min_observations + 2);
  // And only one shift: the re-search settles instead of oscillating.
  EXPECT_NE(lb.state(), LbState::kSearch);

  // Recovery: compute time back within ~the band of the fresh-build optimum
  // for the degraded machine.
  const double recovered = observe(tree, node, ctx).compute_seconds();
  EXPECT_LT(recovered, ref_compute * (1.0 + 2.0 * cfg.band));
}

TEST(Chaos, AllGpusLostForcesAreBitForBitIdentical) {
  Rng rng(17);
  auto set = uniform_cube(3000, rng, {0.5, 0.5, 0.5}, 0.5);
  FmmConfig fmm;
  fmm.order = 4;

  AdaptiveOctree tree;
  tree.build(set.positions, unit_config(48));

  GravitySolver healthy(fmm, NodeSimulator(CpuModelConfig{},
                                           GpuSystemConfig::uniform(2)));
  const auto a = healthy.solve(tree, set.positions, set.masses);
  EXPECT_FALSE(a.gpu.cpu_fallback);
  EXPECT_GT(a.times.gpu_seconds, 0.0);

  GravitySolver degraded(fmm, NodeSimulator(CpuModelConfig{},
                                            GpuSystemConfig::uniform(2)));
  degraded.node().health().gpus[0].alive = false;
  degraded.node().health().gpus[1].alive = false;
  const auto b = degraded.solve(tree, set.positions, set.masses);
  EXPECT_TRUE(b.gpu.cpu_fallback);
  EXPECT_DOUBLE_EQ(b.times.gpu_seconds, 0.0);
  EXPECT_GT(b.times.cpu_p2p_seconds, 0.0);

  // The CPU fallback accumulates every target's sources in exactly the order
  // the GPU path would: forces agree to the last bit.
  ASSERT_EQ(a.potential.size(), b.potential.size());
  for (std::size_t i = 0; i < a.potential.size(); ++i) {
    EXPECT_EQ(a.potential[i], b.potential[i]);
    EXPECT_EQ(a.gradient[i].x, b.gradient[i].x);
    EXPECT_EQ(a.gradient[i].y, b.gradient[i].y);
    EXPECT_EQ(a.gradient[i].z, b.gradient[i].z);
  }
}

TEST(Chaos, SimulationWiresFaultsIntoStepRecords) {
  Rng rng(5);
  SimulationConfig cfg;
  cfg.balancer.initial_S = 48;
  cfg.faults.gpu_loss(2, 0)
      .transfer_faults(4, 0.9, 2)
      .gpu_loss(7, 1);

  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  GravitySimulation sim(cfg, node, uniform_cube(3000, rng, {0.5, 0.5, 0.5},
                                                0.5));
  const auto records = sim.run(10);

  EXPECT_EQ(records[1].alive_gpus, 2);
  EXPECT_EQ(records[2].faults_fired, 1);
  EXPECT_EQ(records[2].alive_gpus, 1);
  EXPECT_DOUBLE_EQ(records[2].gpu_capability, 1.0);

  // The transfer-fault window (steps 4-5) must charge retries while a GPU is
  // still alive to transfer to.
  EXPECT_GT(records[4].transfer_retries + records[5].transfer_retries, 0);
  EXPECT_EQ(records[3].transfer_retries, 0);

  // After the second loss the near field runs on the CPU.
  EXPECT_EQ(records[7].alive_gpus, 0);
  for (int s = 7; s < 10; ++s) {
    EXPECT_TRUE(records[s].cpu_fallback) << "step " << s;
    EXPECT_DOUBLE_EQ(records[s].gpu_seconds, 0.0);
    EXPECT_GT(records[s].compute_seconds, 0.0);
  }
}

}  // namespace
}  // namespace afmm
