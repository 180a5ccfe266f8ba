// Operator micro-benchmarks (google-benchmark): real wall-clock cost of each
// FMM operator as a function of the expansion order p.
//
// Section I.C of the paper rests on every operator having "a predictable
// cost in FLOPS ... expressed in terms of the number of bodies in a leaf
// node and the number of retained terms": these benchmarks demonstrate that
// per-application costs are stable, which is what makes the observational
// coefficients of Section IV.D usable for prediction.
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <numeric>
#include <span>

#include "dist/distributions.hpp"
#include "expansion/operators.hpp"
#include "kernels/gravity.hpp"
#include "kernels/stokeslet.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"
#include "util/lanes.hpp"
#include "util/rng.hpp"

namespace {

using namespace afmm;

struct Setup {
  explicit Setup(int order) : ctx(order), M(ctx.ncoef()), L(ctx.ncoef()) {
    Rng rng(1);
    for (int i = 0; i < 64; ++i) {
      pos.push_back({rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                     rng.uniform(-0.5, 0.5)});
      q.push_back(rng.uniform(0.5, 1.5));
    }
    for (auto& m : M) m = rng.uniform(-1, 1);
  }
  ExpansionContext ctx;
  std::vector<Vec3> pos;
  std::vector<double> q;
  std::vector<double> M;
  std::vector<double> L;
};

void BM_P2M(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)));
  std::vector<double> out(s.ctx.ncoef());
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0);
    s.ctx.p2m({0, 0, 0}, s.pos.data(), s.q.data(),
              static_cast<int>(s.pos.size()), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * s.pos.size());
}

void BM_M2M(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)));
  std::vector<double> out(s.ctx.ncoef(), 0.0);
  for (auto _ : state) {
    s.ctx.m2m({0.25, 0.25, 0.25}, {0, 0, 0}, s.M.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_M2L(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)));
  std::vector<double> out(s.ctx.ncoef(), 0.0);
  for (auto _ : state) {
    s.ctx.m2l({0, 0, 0}, {3, 1, 0}, s.M.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_M2L_Multi4(benchmark::State& state) {
  // The Stokeslet path: 4 right-hand sides sharing one derivative tensor.
  Setup s(static_cast<int>(state.range(0)));
  const int nc = s.ctx.ncoef();
  std::vector<double> m(4 * nc), out(4 * nc, 0.0);
  Rng rng(2);
  for (auto& v : m) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    s.ctx.m2l_multi({0, 0, 0}, {3, 1, 0}, m.data(), out.data(), 4, nc);
    benchmark::DoNotOptimize(out.data());
  }
}

// W distinct M2L offsets around (3, 1, 0), one per lane.
template <int W>
std::array<Vec3, W> lane_offsets() {
  std::array<Vec3, W> r;
  for (int l = 0; l < W; ++l)
    r[l] = Vec3{3, 1, 0} + static_cast<double>(l) * Vec3{0.25, -0.5, 0.125};
  return r;
}

// The derivative tensor of 1/r alone, W offsets per evaluate_lanes<W> call,
// at the order 2p an order-p M2L needs. Items are tensors; the 4-lane (AVX2)
// case is skipped on a CPU without AVX2.
template <int W>
void BM_DerivTensor(benchmark::State& state) {
  if (W > lane_width()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const MultiIndexSet set(2 * static_cast<int>(state.range(0)));
  const LaplaceDerivatives derivs(set);
  const auto r = lane_offsets<W>();
  std::vector<double> out(static_cast<std::size_t>(W) * set.size());
  for (auto _ : state) {
    derivs.evaluate_lanes<W>(r, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * W);
}

// One M2L lane call: W (source, target) pairs, one per lane, each adding
// nrhs = range(1) expansions into its lane of one lane-interleaved local
// block. Items are pairs, so the per-item time compares with BM_M2L's (1 rhs)
// and BM_M2L_Multi4's (4 rhs) per-call time.
template <int W>
void BM_M2L_Lanes(benchmark::State& state) {
  if (W > lane_width()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  Setup s(static_cast<int>(state.range(0)));
  const int nrhs = static_cast<int>(state.range(1));
  const int nc = s.ctx.ncoef();
  std::vector<double> M(static_cast<std::size_t>(W) * nrhs * nc);
  Rng rng(2);
  for (auto& v : M) v = rng.uniform(-1, 1);
  const auto r = lane_offsets<W>();
  std::array<const double*, W> m;
  for (int l = 0; l < W; ++l)
    m[l] = M.data() + static_cast<std::size_t>(l) * nrhs * nc;
  std::vector<double> out(static_cast<std::size_t>(W) * nrhs * nc, 0.0);
  for (auto _ : state) {
    s.ctx.m2l_lanes<W>(r, m.data(), out.data(), nrhs, nc);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * W);
}

void BM_L2L(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)));
  std::vector<double> out(s.ctx.ncoef(), 0.0);
  for (auto _ : state) {
    s.ctx.l2l({0, 0, 0}, {0.25, 0.25, 0.25}, s.M.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_L2P(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const auto& p : s.pos) {
      auto v = s.ctx.l2p({0, 0, 0}, s.M.data(), p * 0.1);
      benchmark::DoNotOptimize(v);
    }
  }
  state.SetItemsProcessed(state.iterations() * s.pos.size());
}

// One P2P work item through the lane routine: a 48-body target leaf against
// the 27 leaves of a 3x3x3 block of unit cells (48 random bodies each), the
// target the centre leaf, so its self pairs are among the sources. Targets
// go W at a time, one accumulate_lanes<W>() call per source leaf (the
// executor's case when no two source leaves are adjacent in tree order).
// Each benchmark runs once per width; the 4-lane (AVX2) case is skipped on a
// CPU without AVX2. Items are interactions.
constexpr std::size_t kLeafBodies = 48;
constexpr std::size_t kSourceLeaves = 27;

template <int W, typename Kernel, typename MakeSource>
void p2p_leaf(benchmark::State& state, const Kernel& kernel,
              MakeSource make_source) {
  using Source = typename Kernel::Source;
  constexpr std::size_t kLanes = W;
  if (W > lane_width()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  Rng rng(3);
  std::vector<Source> src;
  for (std::size_t c = 0; c < kSourceLeaves; ++c) {
    const Vec3 corner{static_cast<double>(c % 3),
                      static_cast<double>(c / 3 % 3),
                      static_cast<double>(c / 9)};
    for (std::size_t b = 0; b < kLeafBodies; ++b) {
      const Vec3 x = corner + Vec3{rng.uniform(), rng.uniform(), rng.uniform()};
      src.push_back(make_source(x, rng));
    }
  }
  std::vector<std::uint32_t> ids(src.size());
  std::iota(ids.begin(), ids.end(), 0u);
  const std::span<const Source> sources(src);
  const std::span<const std::uint32_t> source_ids(ids);
  const std::size_t target = 13 * kLeafBodies;
  for (auto _ : state) {
    for (std::size_t j0 = 0; j0 < kLeafBodies; j0 += kLanes) {
      Vec3 xt[kLanes];
      std::uint32_t tid[kLanes];
      typename Kernel::Accum acc[kLanes]{};
      for (std::size_t l = 0; l < kLanes; ++l) {
        xt[l] = src[target + j0 + l].x;
        tid[l] = ids[target + j0 + l];
      }
      for (std::size_t c = 0; c < kSourceLeaves; ++c)
        kernel.template accumulate_lanes<W>(
            xt, tid, sources.subspan(c * kLeafBodies, kLeafBodies),
            source_ids.subspan(c * kLeafBodies, kLeafBodies), acc);
      benchmark::DoNotOptimize(acc);
    }
  }
  state.SetItemsProcessed(state.iterations() * kLeafBodies * kSourceLeaves *
                          kLeafBodies);
}

template <int W>
void BM_P2P_Gravity(benchmark::State& state) {
  p2p_leaf<W>(state, GravityKernel(1e-6), [](const Vec3& x, Rng& rng) {
    return GravitySource{x, rng.uniform(0.5, 1.5)};
  });
}

template <int W>
void BM_P2P_Stokeslet(benchmark::State& state) {
  p2p_leaf<W>(state, StokesletKernel(1e-2), [](const Vec3& x, Rng& rng) {
    return StokesletSource{
        x, {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)}};
  });
}

// The divider floor under the P2P lane routines: each interaction costs one
// packed sqrt and one packed division per W lanes (1 / sqrt(r^2)). Here both
// run over independent operands, with nothing else in the loop, so no
// dependency chain or other work hides the divider's throughput. Items are
// lane-elements, so the per-item time compares with BM_P2P_*<W>'s per
// interaction. The 4-lane (AVX2) case is skipped on a CPU without AVX2.
constexpr std::size_t kFloorOperands = 1024;

template <int W>
void inv_sqrt_lanes(const double* x, double* y) {
  for (std::size_t i = 0; i < kFloorOperands; i += W) {
#pragma omp simd
    for (int l = 0; l < W; ++l) y[i + l] = 1.0 / std::sqrt(x[i + l]);
  }
}
template void inv_sqrt_lanes<2>(const double*, double*);
template AFMM_TARGET_AVX2 void inv_sqrt_lanes<4>(const double*, double*);

template <int W>
void BM_SqrtDivFloor(benchmark::State& state) {
  if (W > lane_width()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  Rng rng(4);
  std::vector<double> x(kFloorOperands), y(kFloorOperands);
  for (double& v : x) v = rng.uniform(0.5, 3.0);
  for (auto _ : state) {
    inv_sqrt_lanes<W>(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kFloorOperands);
}

// The tree-maintenance layer of a replay observation step, on a clustered
// cloud: 200k Plummer bodies at S = 64, and the same bodies one step of a
// contraction later (every body 3% toward the center, jittered), which moves
// bodies between leaves and empties some of them.
struct ClusteredCloud {
  std::vector<Vec3> before, after;
  AdaptiveOctree tree;  // built on `before`

  static const ClusteredCloud& get() {
    static const ClusteredCloud cloud;
    return cloud;
  }

 private:
  ClusteredCloud() {
    Rng rng(5);
    PlummerOptions opt;
    opt.scale_radius = 0.05;
    before = plummer(200000, rng, opt).positions;
    after = before;
    for (Vec3& p : after)
      p = 0.97 * p + Vec3{rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3),
                          rng.uniform(-1e-3, 1e-3)};
    TreeConfig tc;
    tc.leaf_capacity = 64;
    tree.build(before, fit_cube(before, tc));
  }
};

// One rebin per iteration, alternating between the cloud's two steps, so
// every rebin moves bodies. Items are bodies.
void BM_Rebin(benchmark::State& state) {
  const ClusteredCloud& cloud = ClusteredCloud::get();
  AdaptiveOctree tree = cloud.tree;
  bool forward = true;
  for (auto _ : state) {
    tree.rebin(forward ? cloud.after : cloud.before);
    forward = !forward;
    benchmark::DoNotOptimize(tree.perm().data());
  }
  state.SetItemsProcessed(state.iterations() * tree.num_bodies());
}

// One re-filter of the cloud tree's count-blind rows per iteration,
// alternating between the emptiness of the cloud's two steps, into lists
// whose storage is reused as the list cache's is. Items are count-blind
// pairs.
void BM_ListRefilter(benchmark::State& state) {
  const ClusteredCloud& cloud = ClusteredCloud::get();
  const TraversalConfig cfg;
  PairRows rows;
  walk_count_blind(cloud.tree, cfg, rows);
  AdaptiveOctree moved = cloud.tree;
  moved.rebin(cloud.after);
  const AdaptiveOctree* trees[2] = {&cloud.tree, &moved};
  std::vector<char> empty[2];
  for (int k = 0; k < 2; ++k)
    for (int i = 0; i < trees[k]->num_nodes(); ++i)
      empty[k].push_back(trees[k]->node(i).count == 0);
  InteractionLists lists;
  int k = 0;
  for (auto _ : state) {
    filter_interaction_lists(*trees[k], rows, empty[k], lists);
    k ^= 1;
    benchmark::DoNotOptimize(lists.m2l_sources.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          (rows.m2l_sources.size() + rows.p2p_sources.size()));
}

}  // namespace

BENCHMARK(BM_P2M)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(BM_M2M)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(BM_M2L)->Arg(2)->Arg(4)->Arg(5)->Arg(6)->Arg(8);
BENCHMARK(BM_M2L_Multi4)->Arg(2)->Arg(4)->Arg(5)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_DerivTensor, 1)->Arg(4)->Arg(5)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_DerivTensor, 2)->Arg(4)->Arg(5)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_DerivTensor, 4)->Arg(4)->Arg(5)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_M2L_Lanes, 2)
    ->ArgsProduct({{4, 5, 6, 8}, {1, 4}});
BENCHMARK_TEMPLATE(BM_M2L_Lanes, 4)
    ->ArgsProduct({{4, 5, 6, 8}, {1, 4}});
BENCHMARK(BM_L2L)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(BM_L2P)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_P2P_Gravity, 2);
BENCHMARK_TEMPLATE(BM_P2P_Gravity, 4);
BENCHMARK_TEMPLATE(BM_P2P_Stokeslet, 2);
BENCHMARK_TEMPLATE(BM_P2P_Stokeslet, 4);
BENCHMARK_TEMPLATE(BM_SqrtDivFloor, 2);
BENCHMARK_TEMPLATE(BM_SqrtDivFloor, 4);
BENCHMARK(BM_Rebin)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ListRefilter)->Unit(benchmark::kMillisecond);
BENCHMARK_MAIN();
