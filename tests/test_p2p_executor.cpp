// run_p2p's host execution: one OpenMP loop over every work item, each
// item's targets in SIMD lane blocks. Its output must be byte-identical to a
// serial per-target scalar reference at both lane widths, at any thread
// count, on any number of healthy GPUs, on the all-GPUs-lost CPU fallback,
// and for ragged lane blocks, coincident bodies and masked self pairs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "gpusim/p2p_executor.hpp"
#include "kernels/gravity.hpp"
#include "util/lanes.hpp"
#include "kernels/stokeslet.hpp"
#include "omp_threads.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

// Each test runs at both lane widths; width 4 runs the AVX2 routines, so it
// is skipped on a CPU without AVX2.
class LaneWidth : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (GetParam() > lane_width()) GTEST_SKIP() << "CPU lacks AVX2";
  }
};
class RunP2P : public LaneWidth {};
class KernelLanes : public LaneWidth {};
INSTANTIATE_TEST_SUITE_P(Width, RunP2P, ::testing::Values(2, 4),
                         ::testing::PrintToStringParamName());
INSTANTIATE_TEST_SUITE_P(Width, KernelLanes, ::testing::Values(2, 4),
                         ::testing::PrintToStringParamName());

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
    int width, const AdaptiveOctree& tree, const Kernel& kernel,
    const std::vector<typename Kernel::Source>& sources) {
  using Accum = typename Kernel::Accum;
  const auto lists = build_interaction_lists(tree);
  const auto ids = tree.perm();
  const auto ref = serial_reference(tree, lists.p2p, kernel, sources, ids);
  for (int threads : {1, 4}) {
    OmpThreads scope(threads);
    for (const auto& m : machines()) {
      std::vector<Accum> out(sources.size());
      const std::span<const typename Kernel::Source> in(sources);
      const auto res =
          width == 4 ? run_p2p_lanes<4>(tree, lists.p2p, kernel, in, ids,
                                        m.system, std::span<Accum>(out),
                                        &m.health)
                     : run_p2p_lanes<2>(tree, lists.p2p, kernel, in, ids,
                                        m.system, std::span<Accum>(out),
                                        &m.health);
      EXPECT_EQ(res.cpu_fallback, m.all_dead) << m.name;
      EXPECT_EQ(res.total_interactions, lists.total_p2p_interactions)
          << m.name;
      EXPECT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(Accum)),
                0)
          << m.name << ", " << threads << " threads, width " << width;
    }
  }
}

// Sorted positions and per-body charges as tree-ordered gravity sources.
std::vector<GravitySource> gravity_sources(const AdaptiveOctree& tree,
                                           const std::vector<double>& q) {
  const auto pos = tree.sorted_positions();
  const auto perm = tree.perm();
  std::vector<GravitySource> sources(pos.size());
  for (std::size_t t = 0; t < pos.size(); ++t)
    sources[t] = {pos[t], q[perm[t]]};
  return sources;
}

TEST_P(RunP2P, GravityBytesIdenticalAcrossThreadsAndGpus) {
  Rng rng(15);
  const int n = 800;
  std::vector<Vec3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform(0.1, 2.0);

  AdaptiveOctree tree;
  tree.build(pts, unit_config(24));
  expect_bytes_match_reference(GetParam(), tree, GravityKernel{},
                               gravity_sources(tree, q));
}

TEST_P(RunP2P, StokesletBytesIdenticalAcrossThreadsAndGpus) {
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
  expect_bytes_match_reference(GetParam(), tree, StokesletKernel(1e-3),
                               sources);
}

// Leaves of 1 to 5 bodies leave the last lane block ragged, with 1, 2 or 3
// live lanes, after zero, one or two full blocks. At softening 0 every self
// pair must be skipped exactly: no NaN from r = 0. Charges of both signs
// make a masked self pair contribute -0 as well as +0.
TEST_P(RunP2P, RaggedLaneBlocksMatchReference) {
  Rng rng(17);
  const int n = 300;
  std::vector<Vec3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform(-1.0, 1.0);

  AdaptiveOctree tree;
  tree.build(pts, unit_config(5));
  const auto lists = build_interaction_lists(tree);
  std::set<std::uint32_t> counts;
  for (const auto& w : lists.p2p) counts.insert(tree.node(w.target).count);
  for (std::uint32_t c : {1u, 2u, 3u, 4u, 5u})
    EXPECT_TRUE(counts.count(c)) << "no target leaf of " << c << " bodies";

  const auto sources = gravity_sources(tree, q);
  const GravityKernel kernel;
  expect_bytes_match_reference(GetParam(), tree, kernel, sources);
  for (const auto& a :
       serial_reference(tree, lists.p2p, kernel, sources, tree.perm()))
    EXPECT_TRUE(std::isfinite(a.pot) && std::isfinite(a.grad.x) &&
                std::isfinite(a.grad.y) && std::isfinite(a.grad.z));
}

// Distinct bodies at one position interact (r = 0, finite through the
// softening or the regularization); only a body's own pair is skipped.
TEST_P(RunP2P, CoincidentBodiesMatchReference) {
  Rng rng(18);
  const int n = 400;
  std::vector<Vec3> pts(n), f(n);
  for (int i = 0; i < n; i += 2)
    pts[i] = pts[i + 1] = {rng.uniform(), rng.uniform(), rng.uniform()};
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform(0.1, 2.0);
  for (auto& v : f)
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};

  AdaptiveOctree tree;
  tree.build(pts, unit_config(5));
  expect_bytes_match_reference(GetParam(), tree, GravityKernel(1e-3),
                               gravity_sources(tree, q));

  const auto pos = tree.sorted_positions();
  const auto perm = tree.perm();
  std::vector<StokesletSource> sources(n);
  for (int t = 0; t < n; ++t) sources[t] = {pos[t], f[perm[t]]};
  expect_bytes_match_reference(GetParam(), tree, StokesletKernel(1e-3),
                               sources);
}

// accumulate_lanes<W>() called directly, against accumulate() byte for
// byte: block b puts bodies b..b+W-1 in the lanes over all bodies as
// sources, so every lane meets its own body, at every position. The
// sources arrive in two runs, so lane state carries across calls.
template <int W, typename Kernel>
void expect_lanes_match_scalar(
    const Kernel& kernel, const std::vector<typename Kernel::Source>& src) {
  using Accum = typename Kernel::Accum;
  constexpr std::size_t kLanes = W;
  std::vector<std::uint32_t> ids(src.size());
  std::iota(ids.begin(), ids.end(), 0u);
  const std::span<const typename Kernel::Source> all(src);
  const std::span<const std::uint32_t> all_ids(ids);
  for (std::size_t b = 0; b + kLanes <= src.size(); ++b) {
    Vec3 xt[kLanes];
    std::uint32_t tid[kLanes];
    Accum acc[kLanes]{};
    for (std::size_t l = 0; l < kLanes; ++l) {
      xt[l] = src[b + l].x;
      tid[l] = ids[b + l];
    }
    const std::size_t cut = b + 1;
    kernel.template accumulate_lanes<W>(xt, tid, all.first(cut),
                                        all_ids.first(cut), acc);
    kernel.template accumulate_lanes<W>(xt, tid, all.subspan(cut),
                                        all_ids.subspan(cut), acc);
    for (std::size_t l = 0; l < kLanes; ++l) {
      Accum ref{};
      for (std::size_t j = 0; j < src.size(); ++j)
        kernel.accumulate(xt[l], tid[l], src[j], ids[j], ref);
      EXPECT_EQ(std::memcmp(&ref, &acc[l], sizeof(Accum)), 0)
          << "width " << W << " block " << b << " lane " << l;
    }
  }
}

template <typename Kernel>
void expect_lanes_match_scalar(
    int width, const Kernel& kernel,
    const std::vector<typename Kernel::Source>& src) {
  if (width == 4)
    expect_lanes_match_scalar<4>(kernel, src);
  else
    expect_lanes_match_scalar<2>(kernel, src);
}

TEST_P(KernelLanes, GravityMatchesScalarWithSelfPairInEveryLane) {
  Rng rng(19);
  std::vector<GravitySource> src(24);
  for (auto& s : src)
    s = {{rng.uniform(), rng.uniform(), rng.uniform()}, rng.uniform(-1, 1)};
  expect_lanes_match_scalar(GetParam(), GravityKernel{}, src);
  src[7].x = src[6].x;  // coincident distinct bodies need softening
  expect_lanes_match_scalar(GetParam(), GravityKernel(1e-3), src);
}

TEST_P(KernelLanes, StokesletMatchesScalarWithSelfPairInEveryLane) {
  Rng rng(20);
  std::vector<StokesletSource> src(24);
  for (auto& s : src)
    s = {{rng.uniform(), rng.uniform(), rng.uniform()},
         {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)}};
  src[7].x = src[6].x;
  expect_lanes_match_scalar(GetParam(), StokesletKernel(1e-3), src);
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
