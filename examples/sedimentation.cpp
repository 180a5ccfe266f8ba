// Sedimenting particle cloud in Stokes flow: a spherical blob of identical
// Stokeslets falling under a constant body force. The blob falls faster than
// an isolated particle, deforms into a torus and sheds a tail -- a classical
// unstable Stokes suspension (Nitsche & Batchelor 1997) and a demanding
// dynamic workload for the load balancer: the cloud leaves its initial
// region entirely.
//
//   $ ./sedimentation [N] [steps]
#include <cstdio>
#include <cstdlib>

#include "core/problems.hpp"
#include "dist/distributions.hpp"
#include "util/rng.hpp"

using namespace afmm;

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 5000;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 40;

  // Spherical blob of radius 1 near the top of a tall domain.
  Rng rng(3);
  std::vector<Vec3> pos;
  pos.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(pos.size()) < n) {
    Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (norm2(p) <= 1.0) pos.push_back(p + Vec3{0, 0, 6});
  }

  EngineConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 10.0;
  cfg.dt = 2e-3;
  cfg.balancer.strategy = LbStrategy::kFull;
  cfg.balancer.initial_S = 48;

  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  // epsilon 0.02, viscosity 1.
  StokesEngine sim(cfg, StokesProblem(cfg.fmm, 0.02, 1.0, node, pos,
                                      constant_force({0, 0, -1})));

  std::printf("sedimenting blob: N=%d Stokeslets, %d steps\n"
              "step |    S | state        | cpu_s   gpu_s   | z_com   extent\n",
              n, steps);
  for (int s = 0; s < steps; ++s) {
    const auto rec = sim.step_once();
    Vec3 com;
    for (const auto& p : sim.problem().position_vector()) com += p;
    com = com / static_cast<double>(n);
    double r2max = 0.0;
    for (const auto& p : sim.problem().position_vector())
      r2max = std::max(r2max, norm2(Vec3{p.x - com.x, p.y - com.y, 0}));
    if (s % 4 == 0 || s + 1 == steps)
      std::printf("%4d | %4d | %-12s | %.5f %.5f | %+.3f  %.3f\n", rec.step,
                  rec.S, to_string(rec.state), rec.cpu_seconds,
                  rec.gpu_seconds, com.z, std::sqrt(r2max));
  }
  std::printf("the blob settles and broadens (torus instability).\n");
  return 0;
}
