#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/problems.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

EngineConfig base_config() {
  EngineConfig cfg;
  cfg.fmm.order = 5;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 4.0;
  cfg.balancer.initial_S = 32;
  cfg.dt = 1e-3;
  return cfg;
}

// G = 1 on a 2-GPU node.
GravityEngine make_sim(const EngineConfig& cfg, double softening,
                       ParticleSet bodies) {
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  return GravityEngine(cfg, GravityProblem(cfg.fmm, 1.0, softening,
                                           std::move(node), std::move(bodies)));
}

// A two-body circular orbit: the tightest integrator + solver test we have.
ParticleSet circular_binary() {
  ParticleSet set;
  // Equal masses m = 0.5 at +-0.5 on x, circular velocity from
  // v^2 = G m_other / (4 r) ... for separation d = 1, m = 0.5 each:
  // each body orbits the COM at r = 0.5 with v = sqrt(G * M_total / d) / 2.
  const double v = std::sqrt(1.0 * 1.0 / 1.0) / 2.0;
  set.positions = {{-0.5, 0, 0}, {0.5, 0, 0}};
  set.velocities = {{0, -v, 0}, {0, v, 0}};
  set.masses = {0.5, 0.5};
  return set;
}

TEST(Simulation, BinaryOrbitConservesEnergyAndRadius) {
  auto cfg = base_config();
  cfg.dt = 2e-3;
  GravityEngine sim = make_sim(cfg, 0.0, circular_binary());
  const double e0 = sim.problem().total_energy();
  // Orbit period T = 2 pi d^(3/2) / sqrt(G M) = 2 pi; integrate one period.
  const int steps = static_cast<int>(2 * std::numbers::pi_v<double> / cfg.dt);
  sim.run(steps);
  const double e1 = sim.problem().total_energy();
  EXPECT_NEAR(e1, e0, 1e-4 * std::abs(e0));
  // Separation must return near 1.
  const auto& pos = sim.problem().bodies().positions;
  const double d = norm(pos[1] - pos[0]);
  EXPECT_NEAR(d, 1.0, 5e-3);
}

TEST(Simulation, MomentumConserved) {
  Rng rng(71);
  PlummerOptions opt;
  opt.scale_radius = 0.2;
  opt.velocity_scale = 0.5;
  auto set = plummer(2000, rng, opt);

  auto cfg = base_config();
  cfg.fmm.order = 6;
  cfg.dt = 1e-3;
  GravityEngine sim = make_sim(cfg, 1e-3, set);
  const ParticleSet& bodies = sim.problem().bodies();

  auto momentum = [&]() {
    Vec3 p;
    for (std::size_t i = 0; i < bodies.size(); ++i)
      p += bodies.masses[i] * bodies.velocities[i];
    return p;
  };
  const Vec3 p0 = momentum();
  sim.run(20);
  const Vec3 p1 = momentum();
  // Total momentum change per unit momentum scale stays small (FMM forces
  // are not exactly antisymmetric, but nearly so).
  double scale = 0.0;
  for (std::size_t i = 0; i < bodies.size(); ++i)
    scale += bodies.masses[i] * norm(bodies.velocities[i]);
  EXPECT_LT(norm(p1 - p0) / scale, 1e-3);
}

TEST(Simulation, EnergyDriftBoundedOnWarmPlummer) {
  Rng rng(72);
  PlummerOptions opt;
  opt.scale_radius = 0.3;
  opt.velocity_scale = 1.0;  // virial equilibrium: stable configuration
  auto set = plummer(1500, rng, opt);

  auto cfg = base_config();
  cfg.fmm.order = 6;
  cfg.dt = 5e-4;
  GravityEngine sim = make_sim(cfg, 0.02, set);
  const double e0 = sim.problem().total_energy();
  sim.run(40);
  const double e1 = sim.problem().total_energy();
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 0.02);
}

TEST(Simulation, StepRecordsArePopulated) {
  Rng rng(73);
  auto set = uniform_cube(3000, rng, {0, 0, 0}, 0.5);
  for (auto& v : set.velocities) v = {0.01, -0.01, 0.02};
  auto cfg = base_config();
  GravityEngine sim = make_sim(cfg, 1e-3, set);
  const auto recs = sim.run(5);
  ASSERT_EQ(recs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(recs[i].step, i);
    EXPECT_GT(recs[i].compute_seconds, 0.0);
    EXPECT_GT(recs[i].lb_seconds, 0.0);  // rebin is always charged
    EXPECT_GT(recs[i].S, 0);
    EXPECT_GT(recs[i].stats.nodes, 0);
    EXPECT_EQ(recs[i].compute_seconds,
              std::max(recs[i].cpu_seconds, recs[i].gpu_seconds));
  }
  EXPECT_EQ(sim.steps_taken(), 5);
}

TEST(Simulation, DeterministicForIdenticalInputs) {
  Rng rng1(74), rng2(74);
  auto s1 = uniform_cube(1000, rng1, {0, 0, 0}, 0.5);
  auto s2 = uniform_cube(1000, rng2, {0, 0, 0}, 0.5);
  auto cfg = base_config();
  GravityEngine a = make_sim(cfg, 1e-3, s1);
  GravityEngine b = make_sim(cfg, 1e-3, s2);
  a.run(3);
  b.run(3);
  const auto& pa = a.problem().bodies().positions;
  const auto& pb = b.problem().bodies().positions;
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Simulation, BalancerStateProgressesOverSteps) {
  Rng rng(75);
  auto set = uniform_cube(8000, rng, {0, 0, 0}, 0.5);
  auto cfg = base_config();
  cfg.dt = 1e-4;  // slow dynamics: workload is nearly static
  GravityEngine sim = make_sim(cfg, 1e-3, set);
  const auto recs = sim.run(25);
  EXPECT_EQ(recs.back().state, LbState::kObservation);
}

TEST(Simulation, StructureStableStepBuildsAtMostOneList) {
  // Acceptance check for the shared list cache: a step that leaves the tree
  // structure alone (no rebuild / enforce / fgo) re-traverses at most once --
  // and only when a rebin flipped some leaf's emptiness. The solver's own
  // second use of the lists and the balancer's dry_run are all cache hits.
  Rng rng(77);
  auto set = uniform_cube(4000, rng, {0, 0, 0}, 0.5);
  for (auto& v : set.velocities) v = {0.01, -0.01, 0.02};
  auto cfg = base_config();
  cfg.dt = 1e-4;  // slow dynamics: the structure settles quickly
  cfg.balancer.strategy = LbStrategy::kStatic;
  GravityEngine sim = make_sim(cfg, 1e-3, set);
  ASSERT_EQ(sim.list_cache().builds(), 1u);  // the initial solve
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t before = sim.list_cache().builds();
    const auto rec = sim.step_once();
    const std::uint64_t delta = sim.list_cache().builds() - before;
    if (!rec.rebuilt && rec.enforce_ops == 0 && rec.fgo_ops == 0) {
      EXPECT_LE(delta, 1u) << "step " << i << " re-traversed a stable tree";
    }
  }
  EXPECT_GT(sim.list_cache().hits(), 0u);
}

TEST(Simulation, ColdCollapseDriversEnforcement) {
  // A cold, compact Plummer sphere collapses; the full strategy must apply
  // tree maintenance (rebuilds / enforce / fgo) at some point.
  Rng rng(76);
  PlummerOptions opt;
  opt.scale_radius = 0.1;
  opt.velocity_scale = 0.1;
  auto set = plummer(5000, rng, opt);
  auto cfg = base_config();
  cfg.dt = 5e-3;
  GravityEngine sim = make_sim(cfg, 5e-3, set);
  const auto recs = sim.run(60);
  int actions = 0;
  for (const auto& r : recs) actions += r.rebuilt + (r.enforce_ops > 0) + (r.fgo_ops > 0);
  EXPECT_GT(actions, 0);
}

}  // namespace
}  // namespace afmm
