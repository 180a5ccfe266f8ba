// Gravitational (Laplace) interaction kernel.
//
// The FMM machinery works on the harmonic potential phi(x) = sum_j q_j /
// |x - x_j| and its gradient; gravity is recovered as a = G * grad(phi) with
// q_j = m_j (attractive: the acceleration points toward the sources).
//
// The P2P form supports Plummer softening: phi = q / sqrt(r^2 + eps^2).
// Softening only affects close encounters; the far field (expansions) uses
// the unsoftened kernel, which is exact for eps << cell separation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace afmm {

struct GravitySource {
  Vec3 x;
  double q = 0.0;
};

struct GravityAccum {
  double pot = 0.0;
  Vec3 grad;  // gradient of phi; acceleration = G * grad

  GravityAccum& operator+=(const GravityAccum& o) {
    pot += o.pot;
    grad += o.grad;
    return *this;
  }
};

class GravityKernel {
 public:
  using Source = GravitySource;
  using Accum = GravityAccum;

  explicit GravityKernel(double softening = 0.0)
      : eps2_(softening * softening) {}

  // One target <- source interaction; `tid`/`sid` are global body ids used to
  // skip self-interaction exactly (coincident distinct bodies still count).
  void accumulate(const Vec3& xt, std::uint32_t tid, const Source& s,
                  std::uint32_t sid, Accum& a) const {
    if (tid == sid) return;
    a += term(s.x - xt, s.q, 0.0);
  }

  // Lane l does accumulate(xt[l], tid[l], src[j], sid[j], acc[l]) for every
  // source j in order, with bit-identical results: the source is broadcast
  // and the W lanes run in SIMD. Built for W = 2 and W = 4; W = 4 needs AVX2
  // (util/lanes.hpp). The self pair is masked, not branched on: keep = 0
  // adds 1 to r^2 (no division by zero) and contributes term * 0 = +-0,
  // which leaves an accumulator that started at +0.0 unchanged; keep = 1
  // adds +0 to r^2 >= +0 and multiplies by 1, both exact.
  template <int W>
  void accumulate_lanes(std::span<const Vec3, W> xt,
                        std::span<const std::uint32_t, W> tid,
                        std::span<const Source> src,
                        std::span<const std::uint32_t> sid,
                        std::span<Accum, W> acc) const;

  // FLOP estimate of one interaction (for the GPU cycle model); matches the
  // ~20 flop body of the classic all-pairs CUDA kernel [GPU Gems 3, ch.31].
  static double flops_per_interaction() { return 20.0; }

 private:
  // Contribution of a source of charge `q` at offset `r` (source - target);
  // `pad` is added to the softened r^2. The one definition of the per-pair
  // arithmetic: accumulate() passes +0.0, accumulate_lanes() 1 - keep.
  Accum term(const Vec3& r, double q, double pad) const {
    const double r2 = norm2(r) + eps2_ + pad;
    const double inv = 1.0 / std::sqrt(r2);
    const double inv3 = inv * inv * inv;
    return {q * inv, (q * inv3) * r};
  }

  double eps2_;
};

// O(N^2) reference: potentials and gradients of all `targets` due to all
// `sources`. Self-interactions are skipped via matching global ids
// (targets are bodies target_ids[i]).
void gravity_direct(const GravityKernel& kernel, std::span<const Vec3> targets,
                    std::span<const std::uint32_t> target_ids,
                    std::span<const GravitySource> sources,
                    std::span<const std::uint32_t> source_ids,
                    std::span<GravityAccum> out);

// Convenience for tests: all-pairs over one body set (ids = indices).
std::vector<GravityAccum> gravity_direct_all(const GravityKernel& kernel,
                                             std::span<const Vec3> positions,
                                             std::span<const double> charges);

}  // namespace afmm
