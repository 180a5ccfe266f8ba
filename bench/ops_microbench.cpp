// Operator micro-benchmarks (google-benchmark): real wall-clock cost of each
// FMM operator as a function of the expansion order p.
//
// Section I.C of the paper rests on every operator having "a predictable
// cost in FLOPS ... expressed in terms of the number of bodies in a leaf
// node and the number of retained terms": these benchmarks demonstrate that
// per-application costs are stable, which is what makes the observational
// coefficients of Section IV.D usable for prediction.
#include <benchmark/benchmark.h>

#include "expansion/operators.hpp"
#include "kernels/gravity.hpp"
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

void BM_P2P(benchmark::State& state) {
  Setup s(2);
  GravityKernel kernel(1e-6);
  for (auto _ : state) {
    for (std::size_t t = 0; t < s.pos.size(); ++t) {
      GravityAccum acc;
      for (std::size_t j = 0; j < s.pos.size(); ++j)
        kernel.accumulate(s.pos[t], static_cast<std::uint32_t>(t),
                          {s.pos[j], s.q[j]}, static_cast<std::uint32_t>(j),
                          acc);
      benchmark::DoNotOptimize(acc);
    }
  }
  state.SetItemsProcessed(state.iterations() * s.pos.size() * s.pos.size());
}

}  // namespace

BENCHMARK(BM_P2M)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(BM_M2M)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(BM_M2L)->Arg(2)->Arg(4)->Arg(5)->Arg(6)->Arg(8);
BENCHMARK(BM_M2L_Multi4)->Arg(2)->Arg(4)->Arg(5)->Arg(6)->Arg(8);
BENCHMARK(BM_L2L)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(BM_L2P)->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(BM_P2P);
BENCHMARK_MAIN();
