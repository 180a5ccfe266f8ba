#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/problems.hpp"
#include "dist/distributions.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

constexpr double kEpsilon = 0.05;
constexpr double kViscosity = 1.0;

EngineConfig base_config() {
  EngineConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.dt = 1e-3;
  cfg.balancer.initial_S = 32;
  return cfg;
}

StokesEngine make_sim(const EngineConfig& cfg, int gpus,
                      std::vector<Vec3> pos, ForceModel force) {
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(gpus));
  return StokesEngine(cfg, StokesProblem(cfg.fmm, kEpsilon, kViscosity,
                                         std::move(node), std::move(pos),
                                         std::move(force)));
}

std::vector<Vec3> blob(Rng& rng, int n, const Vec3& center, double radius) {
  std::vector<Vec3> pos;
  while (static_cast<int>(pos.size()) < n) {
    Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (norm2(p) <= 1.0) pos.push_back(center + radius * p);
  }
  return pos;
}

TEST(StokesEngine, BlobSettlesAlongTheForce) {
  Rng rng(91);
  auto pos = blob(rng, 800, {0, 0, 4}, 1.0);
  StokesEngine sim =
      make_sim(base_config(), 2, pos, constant_force({0, 0, -1}));

  auto com_z = [&]() {
    double z = 0;
    for (const auto& p : sim.problem().position_vector()) z += p.z;
    return z / static_cast<double>(sim.problem().position_vector().size());
  };
  const double z0 = com_z();
  sim.run(10);
  EXPECT_LT(com_z(), z0);  // the cloud falls
  // All velocities point (mostly) downward on average.
  double vz = 0;
  for (const auto& v : sim.problem().velocities()) vz += v.z;
  EXPECT_LT(vz, 0.0);
}

TEST(StokesEngine, CollectiveSettlingFasterThanSingleParticle) {
  // Hydrodynamic interactions make a blob settle faster than an isolated
  // Stokeslet: |u_com| > f/(8 pi mu) * (2 eps^2/eps^3 scale) of one particle.
  Rng rng(92);
  auto pos = blob(rng, 600, {0, 0, 4}, 0.5);
  auto cfg = base_config();
  StokesEngine sim =
      make_sim(cfg, 1, pos, constant_force({0, 0, -1}));
  sim.step_once();
  double vz = 0;
  for (const auto& v : sim.problem().velocities()) vz += v.z;
  vz /= static_cast<double>(sim.problem().velocities().size());

  // Isolated regularized particle: u = 2/(8 pi mu eps).
  const double single =
      2.0 / (8.0 * std::numbers::pi_v<double> * kViscosity * kEpsilon);
  EXPECT_LT(vz, -single);  // faster (more negative) than alone
}

TEST(StokesEngine, RecordsPopulatedAndBalancerEngages) {
  Rng rng(93);
  auto pos = blob(rng, 2000, {0, 0, 3}, 1.0);
  StokesEngine sim =
      make_sim(base_config(), 2, pos, constant_force({0, 0, -1}));
  const auto recs = sim.run(12);
  ASSERT_EQ(recs.size(), 12u);
  for (const auto& r : recs) {
    EXPECT_GT(r.compute_seconds, 0.0);
    EXPECT_GT(r.S, 0);
  }
  // The balancer must have left the initial state by now.
  EXPECT_NE(recs.back().state, LbState::kSearch);
}

TEST(StokesEngine, FaultInjectionDegradesAndRecoversTheMachine) {
  Rng rng(95);
  auto pos = blob(rng, 1500, {0, 0, 3}, 1.0);
  auto cfg = base_config();
  cfg.faults.gpu_loss(3, 0).gpu_recovery(8, 0);
  StokesEngine sim =
      make_sim(cfg, 2, pos, constant_force({0, 0, -1}));
  const auto recs = sim.run(12);

  EXPECT_EQ(recs[2].alive_gpus, 2);
  EXPECT_EQ(recs[3].faults_fired, 1);
  EXPECT_EQ(recs[3].alive_gpus, 1);   // loss fires before the solve
  EXPECT_EQ(recs[8].faults_fired, 1);
  EXPECT_EQ(recs[8].alive_gpus, 2);   // ... and so does the recovery
  EXPECT_TRUE(sim.fault_injector().exhausted());
  // The surviving GPU carries the whole near field while its twin is gone.
  EXPECT_GT(recs[4].gpu_seconds, recs[2].gpu_seconds);
}

TEST(StokesEngine, CustomForceModelIsUsed) {
  // Zero forces -> zero velocities -> nothing moves.
  Rng rng(94);
  auto pos = blob(rng, 200, {0, 0, 0}, 1.0);
  const auto before = pos;
  StokesEngine sim =
      make_sim(base_config(), 1, pos, constant_force({0, 0, 0}));
  sim.run(3);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(sim.problem().position_vector()[i], before[i]);
}

}  // namespace
}  // namespace afmm
