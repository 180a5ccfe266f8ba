// Command-line driver exposing the library end to end:
//
//   afmm_cli solve    [--dist plummer|uniform|collision] [--n N] [--s S]
//                     [--order P] [--cores C] [--gpus G] [--kernel gravity|stokeslet]
//   afmm_cli simulate [--dist ...] [--n N] [--steps K]
//                     [--strategy static|enforce|full] [--cores C] [--gpus G]
//   afmm_cli tree     [--dist ...] [--n N]           (tree statistics vs S)
//
// Useful for quick what-if studies without writing code: pick a workload,
// a virtual machine shape and a balancing strategy, and read the resulting
// virtual CPU/GPU times and balancer behaviour.
//
// Flags go through the benches' strict parser (bench/common.hpp), applied to
// argv + 1 so the subcommand takes the program-name slot: a malformed or
// negative number, an unknown flag, or an unknown --dist / --kernel /
// --strategy value exits 2 with an "error:" line before any work runs.
#include <cstdio>
#include <string>

#include "common.hpp"
#include "core/problems.hpp"
#include "dist/distributions.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace afmm;
using bench::arg_choice;
using bench::arg_or;

namespace {

std::string dist_flag(int argc, char** argv) {
  return arg_choice(argc, argv, "dist", {"plummer", "uniform", "collision"});
}

ParticleSet make_distribution(const std::string& dist, long n, Rng& rng) {
  if (dist == "uniform") return uniform_cube(n, rng, {0, 0, 0}, 1.0);
  if (dist == "collision") {
    PlummerOptions opt;
    opt.scale_radius = 0.5;
    return two_cluster_collision(n, rng, 3.0, 0.8, opt);
  }
  PlummerOptions opt;  // default: plummer
  opt.scale_radius = 1.0;
  return plummer(n, rng, opt);
}

NodeSimulator make_node(int argc, char** argv) {
  CpuModelConfig cpu;
  cpu.num_cores = static_cast<int>(arg_or(argc, argv, "cores", 10));
  return NodeSimulator(
      cpu, GpuSystemConfig::uniform(
               static_cast<int>(arg_or(argc, argv, "gpus", 2))));
}

int cmd_solve(int argc, char** argv) {
  const long n = arg_or(argc, argv, "n", 50000);
  const std::string dist = dist_flag(argc, argv);
  const int leaf_capacity = static_cast<int>(arg_or(argc, argv, "s", 64));
  FmmConfig cfg;
  cfg.order = static_cast<int>(arg_or(argc, argv, "order", 5));
  cfg.collect_real_timings = true;
  auto node = make_node(argc, argv);
  const std::string kernel =
      arg_choice(argc, argv, "kernel", {"gravity", "stokeslet"});
  bench::validate_args(argc, argv);

  Rng rng(1);
  auto set = make_distribution(dist, n, rng);
  TreeConfig tc = fit_cube(set.positions);
  tc.leaf_capacity = leaf_capacity;
  AdaptiveOctree tree;
  tree.build(set.positions, tc);

  ObservedStepTimes times;
  SolveStats stats;
  std::shared_ptr<OpTimers> timers;
  if (kernel == "stokeslet") {
    StokesletSolver solver(cfg, node, 1e-3);
    std::vector<Vec3> forces(set.size(), Vec3{0, 0, -1});
    auto res = solver.solve(tree, set.positions, forces);
    times = res.times;
    stats = res.stats;
    timers = res.real_timings;
  } else {
    GravitySolver solver(cfg, node);
    auto res = solver.solve(tree, set.positions, set.masses);
    times = res.times;
    stats = res.stats;
    timers = res.real_timings;
  }

  std::printf("tree: %d nodes, %d leaves, depth %d\n", stats.nodes,
              stats.effective_leaves, stats.depth);
  std::printf("work: %llu M2L pairs, %llu P2P interactions\n",
              static_cast<unsigned long long>(stats.m2l_pairs),
              static_cast<unsigned long long>(stats.p2p_interactions));
  std::printf("virtual times: CPU %.4fs GPU %.4fs -> compute %.4fs\n",
              times.cpu_seconds, times.gpu_seconds, times.compute_seconds());

  Table t({"op", "count", "real_total_s", "real_coefficient_s"});
  for (int op = 0; op < static_cast<int>(FmmOp::kCount); ++op) {
    const auto totals = timers->totals(static_cast<FmmOp>(op));
    if (totals.count == 0) continue;
    t.add_row({to_string(static_cast<FmmOp>(op)),
               Table::integer(static_cast<long long>(totals.count)),
               Table::num(totals.seconds), Table::num(totals.coefficient())});
  }
  t.print("real (wall-clock) observational coefficients, Section IV.D");
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  const long n = arg_or(argc, argv, "n", 20000);
  const long steps = arg_or(argc, argv, "steps", 50);
  const std::string dist = dist_flag(argc, argv);
  EngineConfig cfg;
  cfg.fmm.order = static_cast<int>(arg_or(argc, argv, "order", 4));
  const std::string strat =
      arg_choice(argc, argv, "strategy", {"full", "static", "enforce"});
  cfg.balancer.strategy = strat == "static" ? LbStrategy::kStatic
                          : strat == "enforce" ? LbStrategy::kEnforceOnly
                                               : LbStrategy::kFull;
  auto node = make_node(argc, argv);
  bench::validate_args(argc, argv);

  Rng rng(1);
  auto set = make_distribution(dist, n, rng);
  cfg.tree = fit_cube(set.positions);
  cfg.tree.root_half *= 3.0;  // room to evolve
  cfg.dt = 0.01;

  // G = 1, softening 0.01.
  GravityEngine sim(cfg, GravityProblem(cfg.fmm, 1.0, 0.01, std::move(node),
                                        std::move(set)));
  Table t({"step", "S", "state", "cpu_s", "gpu_s", "lb_s", "depth"});
  for (long s = 0; s < steps; ++s) {
    const auto rec = sim.step_once();
    if (s % std::max<long>(1, steps / 20) == 0 || s + 1 == steps)
      t.add_row({Table::integer(rec.step), Table::integer(rec.S),
                 to_string(rec.state), Table::num(rec.cpu_seconds),
                 Table::num(rec.gpu_seconds), Table::num(rec.lb_seconds),
                 Table::integer(rec.stats.depth)});
  }
  t.print("simulation (" + strat + " strategy)");
  return 0;
}

int cmd_tree(int argc, char** argv) {
  const long n = arg_or(argc, argv, "n", 100000);
  const std::string dist = dist_flag(argc, argv);
  bench::validate_args(argc, argv);

  Rng rng(1);
  auto set = make_distribution(dist, n, rng);
  TreeConfig tc = fit_cube(set.positions);
  Table t({"S", "nodes", "leaves", "depth", "max_leaf", "m2l_pairs",
           "p2p_interactions"});
  for (int s : {16, 32, 64, 128, 256, 512}) {
    tc.leaf_capacity = s;
    AdaptiveOctree tree;
    tree.build(set.positions, tc);
    const auto lists = build_interaction_lists(tree);
    t.add_row({Table::integer(s), Table::integer(tree.num_nodes()),
               Table::integer(static_cast<long long>(
                   tree.effective_leaves().size())),
               Table::integer(tree.effective_depth()),
               Table::integer(tree.max_leaf_count()),
               Table::integer(static_cast<long long>(lists.total_m2l_pairs)),
               Table::integer(
                   static_cast<long long>(lists.total_p2p_interactions))});
  }
  t.print("tree statistics vs S");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "solve") return cmd_solve(argc - 1, argv + 1);
  if (cmd == "simulate") return cmd_simulate(argc - 1, argv + 1);
  if (cmd == "tree") return cmd_tree(argc - 1, argv + 1);
  std::printf(
      "usage: afmm_cli <solve|simulate|tree> [options]\n"
      "  solve    --dist plummer|uniform|collision --n N --s S --order P\n"
      "           --cores C --gpus G --kernel gravity|stokeslet\n"
      "  simulate --dist ... --n N --steps K --strategy static|enforce|full\n"
      "  tree     --dist ... --n N\n");
  return cmd.empty() ? 0 : 1;
}
