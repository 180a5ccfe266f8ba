#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/problems.hpp"
#include "dist/distributions.hpp"
#include "kernels/gravity.hpp"
#include "kernels/stokeslet.hpp"
#include "state/auditor.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

EngineConfig base_config() {
  EngineConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = 32;
  cfg.dt = 1e-4;
  return cfg;
}

// G = 1, softening 1e-3, on a 2-GPU node.
GravityEngine make_sim(const EngineConfig& cfg, ParticleSet bodies) {
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  return GravityEngine(cfg, GravityProblem(cfg.fmm, 1.0, 1e-3, std::move(node),
                                           std::move(bodies)));
}

ParticleSet test_bodies(std::size_t n = 1500) {
  Rng rng(71);
  PlummerOptions opt;
  opt.scale_radius = 0.2;
  opt.velocity_scale = 0.5;
  return plummer(n, rng, opt);
}

TEST(Auditor, HealthyRunPassesEveryAudit) {
  GravityEngine sim = make_sim(base_config(), test_bodies());
  sim.run(5);
  const auto report = sim.run_audit();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.summary(), "ok");
}

TEST(Auditor, TreeAuditCatchesBrokenParentLink) {
  GravityEngine sim = make_sim(base_config(), test_bodies());
  sim.run(2);
  ASSERT_TRUE(sim.run_audit().ok());
  sim.corrupt_tree_for_test();
  const auto report = sim.run_audit();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("tree:"), std::string::npos)
      << report.summary();
}

TEST(Auditor, FiniteAuditCatchesNanForce) {
  GravityEngine sim = make_sim(base_config(), test_bodies());
  sim.run(2);
  sim.problem().corrupt_force_for_test(17);
  const auto report = sim.run_audit();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("accel"), std::string::npos)
      << report.summary();
}

TEST(Auditor, CostModelAuditCatchesPoisonedCoefficient) {
  CostModel model(0.5);
  AuditReport healthy;
  audit_cost_model(model, healthy);
  EXPECT_TRUE(healthy.ok()) << healthy.summary();

  CostModelSnapshot snap = model.snapshot();
  snap.coefficients.m2l = std::numeric_limits<double>::quiet_NaN();
  snap.coefficients.cpu_efficiency = 1.7;  // outside the clamped (0, 1]
  model.restore(snap);
  AuditReport report;
  audit_cost_model(model, report);
  EXPECT_EQ(report.violations.size(), 2u) << report.summary();
}

TEST(Auditor, TreeAuditCatchesOversizeLeaf) {
  GravityEngine sim = make_sim(base_config(), test_bodies());
  sim.run(1);
  // Judge the healthy tree against an S far below the one it was built with:
  // every leaf is now "oversize", exactly what a corrupted span or a
  // scribbled leaf_capacity would look like.
  AuditReport report;
  audit_tree(sim.tree(), /*S=*/1, /*leaf_capacity_slack=*/2.0, report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("tree: leaf"), std::string::npos)
      << report.summary();
}

TEST(Auditor, TreeAuditCatchesScrambledPermutation) {
  Rng rng(17);
  const auto set = uniform_cube(256, rng, {0, 0, 0}, 1.0);
  TreeConfig tc;
  tc.leaf_capacity = 16;
  tc.root_center = {0, 0, 0};
  tc.root_half = 1.0;
  AdaptiveOctree tree;
  tree.build(set.positions, tc);
  AuditReport healthy;
  audit_tree(tree, 16, 64.0, healthy);
  ASSERT_TRUE(healthy.ok()) << healthy.summary();

  // Duplicate one permutation entry (a lost/duplicated body after a bad
  // scatter): restore() adopts the snapshot wholesale, so the corruption
  // lands exactly as in-memory bit rot would.
  OctreeSnapshot snap = tree.snapshot();
  snap.perm[1] = snap.perm[0];
  tree.restore(snap);
  AuditReport report;
  audit_tree(tree, 16, 64.0, report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("perm is not a permutation"),
            std::string::npos)
      << report.summary();
}

TEST(Auditor, SampledStokesAuditCatchesCorruptedVelocity) {
  Rng rng(13);
  const std::size_t n = 48;
  const double epsilon = 0.05;
  const double mobility = 1.0 / (8.0 * 3.14159265358979323846);
  std::vector<Vec3> pos, forces;
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
    forces.push_back({0, 0, -1});
  }
  // Exact direct-sum velocities pass at any tolerance.
  const StokesletKernel kernel(epsilon);
  std::vector<Vec3> vel(n);
  for (std::size_t i = 0; i < n; ++i) {
    StokesletAccum acc;
    for (std::size_t j = 0; j < n; ++j)
      kernel.accumulate(pos[i], static_cast<std::uint32_t>(i),
                        {pos[j], forces[j]}, static_cast<std::uint32_t>(j),
                        acc);
    vel[i] = mobility * acc.u;
  }
  AuditReport healthy;
  audit_sampled_stokes(pos, forces, vel, mobility, epsilon, 8, 0.25, healthy);
  EXPECT_TRUE(healthy.ok()) << healthy.summary();

  // A sign flip on a sampled body (stride n/8, so index 0 is sampled) trips.
  vel[0] = -1.0 * vel[0];
  AuditReport report;
  audit_sampled_stokes(pos, forces, vel, mobility, epsilon, 8, 0.25, report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("stokes audit"), std::string::npos)
      << report.summary();
}

TEST(Auditor, SampledForceAuditCatchesCorruptedAcceleration) {
  Rng rng(11);
  const std::size_t n = 64;
  std::vector<Vec3> pos;
  std::vector<double> mass(n, 1.0 / static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i)
    pos.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1),
                   rng.uniform(-1, 1)});

  // Exact direct-sum accelerations pass at any tolerance.
  const double softening = 1e-3;
  const GravityKernel kernel(softening);
  std::vector<Vec3> accel(n);
  for (std::size_t i = 0; i < n; ++i) {
    GravityAccum acc;
    for (std::size_t j = 0; j < n; ++j)
      kernel.accumulate(pos[i], static_cast<std::uint32_t>(i),
                        {pos[j], mass[j]}, static_cast<std::uint32_t>(j), acc);
    accel[i] = acc.grad;
  }
  AuditReport healthy;
  audit_sampled_gravity(pos, mass, accel, 1.0, softening, 8, 0.25, healthy);
  EXPECT_TRUE(healthy.ok()) << healthy.summary();

  // A sign flip on a sampled body (stride n/8 samples index 0) must trip.
  accel[0] = -1.0 * accel[0];
  AuditReport report;
  audit_sampled_gravity(pos, mass, accel, 1.0, softening, 8, 0.25, report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("force audit"), std::string::npos)
      << report.summary();
}

TEST(Recovery, NanForceRollsBackAndReentersSearch) {
  auto cfg = base_config();
  cfg.resilience.audit.interval = 1;
  GravityEngine sim = make_sim(cfg, test_bodies());
  sim.run(6);
  ASSERT_EQ(sim.rollbacks(), 0);

  sim.problem().corrupt_force_for_test(3);
  const auto rec = sim.step_once();
  EXPECT_TRUE(rec.audited);
  EXPECT_TRUE(rec.audit_failed);
  EXPECT_TRUE(rec.rolled_back);
  EXPECT_GE(rec.restored_step, 0);
  EXPECT_EQ(sim.rollbacks(), 1);
  // Rollback re-enters Search so the balancer re-learns the machine.
  EXPECT_EQ(sim.balancer().state(), LbState::kSearch);
  // The restored state is clean and the run continues healthily.
  EXPECT_TRUE(sim.run_audit().ok());
  const auto after = sim.run(3);
  for (const auto& r : after) {
    EXPECT_FALSE(r.audit_failed);
    EXPECT_FALSE(r.rolled_back);
  }
}

TEST(Recovery, BrokenTreeLinkRollsBack) {
  auto cfg = base_config();
  cfg.resilience.audit.interval = 1;
  cfg.resilience.checkpoint_interval = 4;
  GravityEngine sim = make_sim(cfg, test_bodies());
  sim.run(5);  // a checkpoint exists at step 4

  sim.corrupt_tree_for_test();
  const auto rec = sim.step_once();
  EXPECT_TRUE(rec.audit_failed);
  EXPECT_TRUE(rec.rolled_back);
  EXPECT_EQ(rec.restored_step, 4);
  EXPECT_TRUE(sim.run_audit().ok());
}

TEST(Recovery, RollbackDisabledOnlyRecords) {
  auto cfg = base_config();
  cfg.resilience.audit.interval = 1;
  cfg.resilience.rollback_on_failure = false;
  GravityEngine sim = make_sim(cfg, test_bodies());
  sim.run(3);
  sim.problem().corrupt_force_for_test(3);
  const auto rec = sim.step_once();
  EXPECT_TRUE(rec.audit_failed);
  EXPECT_FALSE(rec.rolled_back);
  EXPECT_EQ(sim.rollbacks(), 0);
}

TEST(Recovery, WatchdogVirtualBudgetTripsAndRollsBack) {
  auto cfg = base_config();
  // Any step blows a sub-femtosecond virtual budget: deterministic trip.
  cfg.resilience.watchdog.virtual_limit_seconds = 1e-15;
  GravityEngine sim = make_sim(cfg, test_bodies());
  const auto rec = sim.step_once();
  EXPECT_TRUE(rec.watchdog_tripped);
  EXPECT_TRUE(rec.rolled_back);
  EXPECT_EQ(rec.restored_step, 0);  // back to the seeded initial snapshot
  EXPECT_EQ(sim.balancer().state(), LbState::kSearch);
}

TEST(Recovery, GenerousWatchdogNeverTrips) {
  auto cfg = base_config();
  cfg.resilience.watchdog.virtual_limit_seconds = 1e9;
  cfg.resilience.watchdog.wall_limit_seconds = 3600.0;
  GravityEngine sim = make_sim(cfg, test_bodies());
  for (const auto& rec : sim.run(4)) {
    EXPECT_FALSE(rec.watchdog_tripped);
    EXPECT_FALSE(rec.rolled_back);
  }
}

TEST(Recovery, ResilienceDoesNotPerturbHealthyTrajectory) {
  const auto set = test_bodies();
  GravityEngine plain = make_sim(base_config(), set);
  auto cfg = base_config();
  cfg.resilience.audit.interval = 1;  // audit EVERY step
  cfg.resilience.checkpoint_interval = 2;
  cfg.resilience.watchdog.virtual_limit_seconds = 1e9;
  GravityEngine resilient = make_sim(cfg, set);

  const auto a = plain.run(10);
  const auto b = resilient.run(10);
  EXPECT_EQ(resilient.rollbacks(), 0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)].compute_seconds,
              b[static_cast<std::size_t>(i)].compute_seconds);
    EXPECT_EQ(a[static_cast<std::size_t>(i)].S,
              b[static_cast<std::size_t>(i)].S);
    EXPECT_EQ(a[static_cast<std::size_t>(i)].state,
              b[static_cast<std::size_t>(i)].state);
  }
  const auto& pa = plain.problem().bodies().positions;
  const auto& pb = resilient.problem().bodies().positions;
  for (std::size_t i = 0; i < set.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

}  // namespace
}  // namespace afmm
