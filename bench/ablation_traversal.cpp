// Ablation: parallel dual-tree traversal and the interaction-list cache.
//
// Two questions, one table each:
//   1. What does the parallel list build (a serial split into pair
//      subproblems, walked by all OpenMP threads) buy on real adaptive
//      trees? (1 thread vs all threads, identical output)
//   2. How often does the versioned cache avoid a traversal across a
//      dynamic-simulation-style loop of balancer dry_run + solve cycles,
//      where the structure changes only every `rebuild_every` steps?
#include <omp.h>

#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "octree/list_cache.hpp"
#include "util/rng.hpp"

using namespace afmm;
using namespace afmm::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Best-of-`reps` wall time of one full list build at the current OpenMP
// thread count.
double time_build(const AdaptiveOctree& tree, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto lists = build_interaction_lists(tree);
    best = std::min(best, seconds_since(t0));
    // Keep the optimizer honest.
    if (lists.m2l_sources.empty() && lists.p2p.empty())
      std::fprintf(stderr, "unexpected empty lists\n");
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const long n = arg_or(argc, argv, "n", 200000);
  const long reps = arg_or(argc, argv, "reps", 3);
  const long steps = arg_or(argc, argv, "steps", 100);
  const std::string out = out_dir(argc, argv);
  validate_args(argc, argv);

  Table build_table(
      {"dist", "S", "threads", "serial_s", "parallel_s", "speedup"});
  build_table.mirror_csv(out + "/ablation_traversal_build.csv");

  struct Case {
    const char* dist;
    int S;
  };
  const Case cases[] = {{"uniform", 32}, {"uniform", 128},
                        {"plummer", 32}, {"plummer", 128}};
  for (const auto& c : cases) {
    Rng rng(2013);
    ParticleSet set;
    TreeConfig tc;
    tc.root_center = {0, 0, 0};
    if (std::string(c.dist) == "uniform") {
      set = uniform_cube(static_cast<std::size_t>(n), rng, {0, 0, 0}, 1.0);
      tc.root_half = 1.0;
    } else {
      PlummerOptions opt;
      opt.scale_radius = 1.0;
      opt.max_radius = 10.0;
      set = plummer(static_cast<std::size_t>(n), rng, opt);
      tc.root_half = 10.0;
    }
    tc.leaf_capacity = c.S;
    AdaptiveOctree tree;
    tree.build(set.positions, tc);

    const int threads = omp_get_max_threads();
    omp_set_num_threads(1);
    const double ts = time_build(tree, static_cast<int>(reps));
    omp_set_num_threads(threads);
    const double tp = time_build(tree, static_cast<int>(reps));
    build_table.add_row({c.dist, Table::integer(c.S), Table::integer(threads),
                         Table::num(ts), Table::num(tp), Table::num(ts / tp)});
  }
  build_table.print("Ablation | list build, 1 thread vs all threads");

  // Cache hit rate over a balancer-shaped loop: every step runs one dry_run
  // and one solve's worth of get() calls (the solve reads the lists twice);
  // every `rebuild_every` steps the structure changes (Enforce_S-style).
  Table cache_table(
      {"rebuild_every", "gets", "builds", "hits", "hit_rate"});
  cache_table.mirror_csv(out + "/ablation_traversal_cache.csv");
  for (int rebuild_every : {1, 5, 25}) {
    Rng rng(2013);
    auto set = plummer(static_cast<std::size_t>(n), rng);
    TreeConfig tc;
    tc.root_center = {0, 0, 0};
    tc.root_half = 10.0;
    tc.leaf_capacity = 64;
    AdaptiveOctree tree;
    tree.build(set.positions, tc);

    InteractionListCache cache;
    const TraversalConfig traversal;
    std::uint64_t gets = 0;
    bool tight = false;
    for (long s = 0; s < steps; ++s) {
      if (s > 0 && s % rebuild_every == 0) {
        // Alternate the enforced S so the structure really changes each
        // time (enforce_S at the build S is a no-op).
        tree.enforce_S(tight ? 64 : 32);
        tight = !tight;
      }
      cache.get(tree, traversal);  // balancer dry_run
      cache.get(tree, traversal);  // solve: far-field task graph
      cache.get(tree, traversal);  // solve: near-field partitioning
      gets += 3;
    }
    cache_table.add_row(
        {Table::integer(rebuild_every),
         Table::integer(static_cast<long long>(gets)),
         Table::integer(static_cast<long long>(cache.builds())),
         Table::integer(static_cast<long long>(cache.hits())),
         Table::num(static_cast<double>(cache.hits()) /
                    static_cast<double>(gets))});
  }
  cache_table.print("Ablation | interaction-list cache hit rate");
  return 0;
}
