// Figs. 8 & 9 + Table II: the dynamic-workload experiment. A cold Plummer
// sphere initially confined to 1/64th of the simulation space collapses
// violently, ejects a halo and leaves a compact core; three load-balancing
// strategies are compared on the identical workload trajectory:
//
//   1. static       -- S chosen by the initial binary search, tree frozen
//   2. enforce-only -- Enforce_S whenever the compute time drifts > 5%
//   3. full         -- the paper's complete scheme (all states + Enforce_S +
//                      FineGrainedOptimize)
//
// The workload trajectory is computed ONCE with real FMM dynamics (leapfrog,
// per-step rebuild) at `ntraj` bodies, then upsampled by `upsample` jittered
// replicas per body for the timing replay -- the macro density evolution is
// identical while the body count reaches the scale where a stale tree's
// quadratic per-leaf P2P cost actually bites (the paper runs 1M bodies; the
// effect grows like f^2 N / S for a mass fraction f trapped in a stale
// leaf). All three strategies replay the same trajectory.
//
// Expected shape (paper): strategy 1 degrades steadily (~3.9x strategy 3's
// cost per step), strategy 2 recovers but stays ~1.5x, strategy 3 is lowest
// with sparse LB spikes and < ~2% total balancing overhead.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/problems.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace afmm;
using namespace afmm::bench;

int main(int argc, char** argv) {
  const long ntraj = arg_or(argc, argv, "ntraj", 10000);
  const long steps = arg_or(argc, argv, "steps", 600);
  const long upsample = arg_or(argc, argv, "upsample", 24);
  const int order = static_cast<int>(arg_or(argc, argv, "order", 4));
  const std::string out = out_dir(argc, argv);
  validate_args(argc, argv);

  // Plummer sphere with max radius 4a inside a box of half-width 16a:
  // the initial cloud occupies (8a)^3 of the (32a)^3 box = 1/64th.
  Rng rng(2013);
  PlummerOptions opt;
  opt.scale_radius = 1.0;
  opt.max_radius = 4.0;
  opt.velocity_scale = 0.1;  // cold start: violent collapse + ejected halo
  auto set = plummer(static_cast<std::size_t>(ntraj), rng, opt);

  TreeConfig tc;
  tc.root_center = {0, 0, 0};
  tc.root_half = 16.0;

  // ---- pass 1: physical trajectory with real FMM dynamics ----------------
  std::printf("Figs. 8/9 + Table II reproduction: cold Plummer in 1/64th of\n"
              "the box; trajectory of %ld bodies x %ld steps (real FMM\n"
              "dynamics), replayed at %ld bodies for timing.\n",
              ntraj, steps, ntraj * upsample);

  EngineConfig sim_cfg;
  sim_cfg.fmm.order = 3;  // workload generation only
  sim_cfg.tree = tc;
  sim_cfg.dt = 0.05;
  sim_cfg.balancer.initial_S = 64;
  sim_cfg.balancer.strategy = LbStrategy::kEnforceOnly;  // keep tree sane
  NodeSimulator node(system_a_cpu(10), GpuSystemConfig::uniform(4));
  // G = 1, softening 0.05.
  GravityEngine sim(sim_cfg,
                    GravityProblem(sim_cfg.fmm, 1.0, 0.05, node, set));

  std::vector<std::vector<Vec3>> trajectory;
  trajectory.push_back(sim.problem().bodies().positions);
  for (long i = 0; i < steps; ++i) {
    sim.step_once();
    trajectory.push_back(sim.problem().bodies().positions);
  }

  auto rms_radius = [](const std::vector<Vec3>& pos) {
    double r2 = 0.0;
    for (const auto& p : pos) r2 += norm2(p);
    return std::sqrt(r2 / static_cast<double>(pos.size()));
  };
  std::printf("cloud rms radius: start %.2f, mid %.2f, end %.2f\n",
              rms_radius(trajectory.front()),
              rms_radius(trajectory[trajectory.size() / 2]),
              rms_radius(trajectory.back()));

  // ---- upsampled position provider ----------------------------------------
  // Each trajectory body spawns `upsample` replicas displaced by a fixed
  // random direction whose magnitude scales with the body's distance from
  // the cluster center, preserving the core's concentration while smoothing
  // the sampled density.
  const std::size_t nrep = static_cast<std::size_t>(ntraj * upsample);
  std::vector<Vec3> dirs(nrep);
  {
    Rng jrng(99);
    for (auto& d : dirs) {
      const double z = jrng.uniform(-1, 1);
      const double phi = jrng.uniform(0.0, 6.283185307179586);
      const double s = std::sqrt(1 - z * z);
      d = {s * std::cos(phi), s * std::sin(phi), z};
    }
  }
  std::vector<Vec3> buffer(nrep);
  auto positions = [&](std::size_t step) -> std::span<const Vec3> {
    const auto& base = trajectory[step];
    for (std::size_t b = 0; b < base.size(); ++b) {
      const double jitter = 0.05 * std::max(norm(base[b]), 0.2);
      for (long k = 0; k < upsample; ++k) {
        const std::size_t r = b * upsample + static_cast<std::size_t>(k);
        buffer[r] = base[b] + jitter * dirs[r];
      }
    }
    return buffer;
  };

  // ---- pass 2: replay under the three strategies --------------------------
  ExpansionContext ctx(order);
  const LbStrategy strategies[] = {LbStrategy::kStatic,
                                   LbStrategy::kEnforceOnly,
                                   LbStrategy::kFull};
  std::vector<std::vector<ReplayRecord>> runs;
  for (auto strat : strategies) {
    LoadBalancerConfig lb;
    lb.strategy = strat;
    lb.initial_S = 64;
    runs.push_back(replay_strategy(positions, static_cast<std::size_t>(steps),
                                   tc, lb, node, ctx));
  }

  // Fig. 8: total time per step; Fig. 9: S per step.
  Table series({"step", "t_static", "t_enforce", "t_full", "S_static",
                "S_enforce", "S_full"});
  series.mirror_csv(out + "/fig08_09_series.csv");
  const long stride = std::max<long>(1, steps / 40);
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    if (static_cast<long>(i) % stride != 0 && i + 1 != runs[0].size())
      continue;
    series.add_row({Table::integer(static_cast<long long>(i)),
                    Table::num(runs[0][i].total_seconds()),
                    Table::num(runs[1][i].total_seconds()),
                    Table::num(runs[2][i].total_seconds()),
                    Table::integer(runs[0][i].S),
                    Table::integer(runs[1][i].S),
                    Table::integer(runs[2][i].S)});
  }
  series.print("Figs. 8 & 9 | per-step total time and S, three strategies "
               "(full series in fig08_09_series.csv)");

  // Table II: strategy summary.
  Table summary({"strategy", "total_compute_s", "total_lb_s", "lb_pct",
                 "rel_cost_per_step"});
  summary.mirror_csv(out + "/table2_strategy_summary.csv");
  double full_avg = 0.0;
  for (const auto& r : runs[2]) full_avg += r.total_seconds();
  full_avg /= static_cast<double>(runs[2].size());

  const char* names[] = {"1 (static)", "2 (enforce-only)", "3 (full)"};
  for (int k = 0; k < 3; ++k) {
    double compute = 0.0, lb = 0.0;
    for (const auto& r : runs[k]) {
      compute += r.compute_seconds;
      lb += r.lb_seconds;
    }
    const double avg = (compute + lb) / static_cast<double>(runs[k].size());
    summary.add_row({names[k], Table::num(compute), Table::num(lb),
                     Table::num(100.0 * lb / compute, 3),
                     Table::num(avg / full_avg)});
  }
  summary.print("Table II | strategy summary (paper: rel cost 3.91 / 1.51 / "
                "1.00, LB overhead 1.88% for strategy 3)");
  return 0;
}
