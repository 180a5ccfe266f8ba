// run_p2p's host execution: one OpenMP loop over every work item. Its output
// must be byte-identical to a serial per-target reference at any thread
// count, on any number of healthy GPUs, and on the all-GPUs-lost CPU
// fallback.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "gpusim/p2p_executor.hpp"
#include "kernels/gravity.hpp"
#include "kernels/stokeslet.hpp"
#include "omp_threads.hpp"
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

struct Machine {
  std::string name;
  GpuSystemConfig system;
  MachineHealth health;
  bool all_dead = false;
};

// 1, 2 and 3 healthy GPUs, then 3 GPUs that are all dead.
std::vector<Machine> machines() {
  std::vector<Machine> out(4);
  for (int g = 1; g <= 3; ++g) {
    Machine& m = out[g - 1];
    m.name = std::to_string(g) + " healthy GPUs";
    m.system = GpuSystemConfig::uniform(g);
    m.health.reset(g, 10);
  }
  Machine& dead = out[3];
  dead.name = "3 dead GPUs";
  dead.system = GpuSystemConfig::uniform(3);
  dead.health.reset(3, 10);
  for (auto& gpu : dead.health.gpus) gpu.alive = false;
  dead.all_dead = true;
  return out;
}

// Every target body sums its work item's sources in concatenated
// source-list order, then adds the sum into `out`.
template <typename Kernel>
std::vector<typename Kernel::Accum> serial_reference(
    const AdaptiveOctree& tree, const std::vector<P2PWork>& work,
    const Kernel& kernel, const std::vector<typename Kernel::Source>& sources,
    std::span<const std::uint32_t> ids) {
  std::vector<typename Kernel::Accum> out(sources.size());
  for (const auto& w : work) {
    const OctreeNode& t = tree.node(w.target);
    for (std::uint32_t bt = t.begin; bt < t.begin + t.count; ++bt) {
      typename Kernel::Accum acc{};
      for (int s : w.sources) {
        const OctreeNode& sn = tree.node(s);
        for (std::uint32_t bs = sn.begin; bs < sn.begin + sn.count; ++bs)
          kernel.accumulate(sources[bt].x, ids[bt], sources[bs], ids[bs], acc);
      }
      out[bt] += acc;
    }
  }
  return out;
}

template <typename Kernel>
void expect_bytes_match_reference(
    const AdaptiveOctree& tree, const Kernel& kernel,
    const std::vector<typename Kernel::Source>& sources) {
  using Accum = typename Kernel::Accum;
  const auto lists = build_interaction_lists(tree);
  const auto ids = tree.perm();
  const auto ref = serial_reference(tree, lists.p2p, kernel, sources, ids);
  for (int threads : {1, 4}) {
    OmpThreads scope(threads);
    for (const auto& m : machines()) {
      std::vector<Accum> out(sources.size());
      const auto res =
          run_p2p(tree, lists.p2p, kernel,
                  std::span<const typename Kernel::Source>(sources), ids,
                  m.system, std::span<Accum>(out), &m.health);
      EXPECT_EQ(res.cpu_fallback, m.all_dead) << m.name;
      EXPECT_EQ(res.total_interactions, lists.total_p2p_interactions)
          << m.name;
      EXPECT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(Accum)),
                0)
          << m.name << ", " << threads << " threads";
    }
  }
}

TEST(RunP2P, GravityBytesIdenticalAcrossThreadsAndGpus) {
  Rng rng(15);
  const int n = 800;
  std::vector<Vec3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform(0.1, 2.0);

  AdaptiveOctree tree;
  tree.build(pts, unit_config(24));
  const auto pos = tree.sorted_positions();
  const auto perm = tree.perm();
  std::vector<GravitySource> sources(n);
  for (int t = 0; t < n; ++t) sources[t] = {pos[t], q[perm[t]]};
  expect_bytes_match_reference(tree, GravityKernel{}, sources);
}

TEST(RunP2P, StokesletBytesIdenticalAcrossThreadsAndGpus) {
  Rng rng(16);
  const int n = 500;
  std::vector<Vec3> pts(n), f(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  for (auto& v : f)
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};

  AdaptiveOctree tree;
  tree.build(pts, unit_config(20));
  const auto pos = tree.sorted_positions();
  const auto perm = tree.perm();
  std::vector<StokesletSource> sources(n);
  for (int t = 0; t < n; ++t) sources[t] = {pos[t], f[perm[t]]};
  expect_bytes_match_reference(tree, StokesletKernel(1e-3), sources);
}

TEST(RunP2P, EmptyWorkIsNoOp) {
  AdaptiveOctree tree;
  std::vector<Vec3> one{{0.5, 0.5, 0.5}};
  tree.build(one, unit_config(8));
  GravityKernel kernel;
  std::vector<GravitySource> sources{{one[0], 1.0}};
  std::vector<GravityAccum> out(1);
  const auto res = run_p2p(tree, std::vector<P2PWork>{}, kernel,
                           std::span<const GravitySource>(sources), tree.perm(),
                           GpuSystemConfig::uniform(2),
                           std::span<GravityAccum>(out));
  EXPECT_EQ(res.total_interactions, 0u);
  EXPECT_EQ(out[0].pot, 0.0);
}

}  // namespace
}  // namespace afmm
