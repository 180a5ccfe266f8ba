// Method-of-regularized-Stokeslets kernel (Cortez, Fauci & Medovikov 2005),
// the fluid-dynamics problem of the paper's Section VIII.B / Fig. 10.
//
// A Stokeslet of strength f at y induces the velocity (times 1/(8 pi mu)):
//
//     u_i(x) = f_i / r + r_i (r . f) / r^3,            r = x - y      (singular)
//     u_i(x) = f_i (r^2 + 2 eps^2) / (r^2 + eps^2)^{3/2}
//            + r_i (r . f) / (r^2 + eps^2)^{3/2}                      (regularized)
//
// Near-field (P2P) uses the regularized form. The far field is evaluated via
// FOUR harmonic (Laplace) expansions -- one per force component plus one for
// the moment y.f -- using the identity
//
//     u_i(x) = phi_i(x) - x_j d_i phi_j(x) + d_i chi(x)
//
// with phi_k(x) = sum_j f_k^j / |x - y_j| and chi(x) = sum_j (y_j . f_j) /
// |x - y_j|. This is exactly why the paper observes ~4x the gravitational
// M2L cost for the fluid problem.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace afmm {

struct StokesletSource {
  Vec3 x;  // location
  Vec3 f;  // force strength
};

struct StokesletAccum {
  Vec3 u;  // induced velocity (before the 1/(8 pi mu) factor)

  StokesletAccum& operator+=(const StokesletAccum& o) {
    u += o.u;
    return *this;
  }
};

class StokesletKernel {
 public:
  using Source = StokesletSource;
  using Accum = StokesletAccum;

  explicit StokesletKernel(double epsilon) : eps2_(epsilon * epsilon) {}

  void accumulate(const Vec3& xt, std::uint32_t tid, const Source& s,
                  std::uint32_t sid, Accum& a) const {
    (void)tid;
    (void)sid;  // the regularized kernel is finite at r = 0; keep self terms
    a.u += term(xt - s.x, s.f);
  }

  // Lane l does accumulate(xt[l], tid[l], src[j], sid[j], acc[l]) for every
  // source j in order, with bit-identical results: the source is broadcast
  // and the W lanes run in SIMD. Built for W = 2 and W = 4; W = 4 needs AVX2
  // (util/lanes.hpp).
  template <int W>
  void accumulate_lanes(std::span<const Vec3, W> xt,
                        std::span<const std::uint32_t, W> tid,
                        std::span<const Source> src,
                        std::span<const std::uint32_t> sid,
                        std::span<Accum, W> acc) const;

  static double flops_per_interaction() { return 32.0; }

 private:
  // Velocity induced at offset `r` (target - source) by force `f`; the one
  // definition of the per-pair arithmetic, shared by accumulate() and
  // accumulate_lanes().
  Vec3 term(const Vec3& r, const Vec3& f) const {
    const double d2 = norm2(r) + eps2_;
    const double inv = 1.0 / std::sqrt(d2);
    const double inv3 = inv * inv * inv;
    const double rf = dot(r, f);
    return ((norm2(r) + 2.0 * eps2_) * inv3) * f + (rf * inv3) * r;
  }

  double eps2_;
};

// O(N^2) regularized reference over one body set.
std::vector<StokesletAccum> stokeslet_direct_all(
    const StokesletKernel& kernel, std::span<const Vec3> positions,
    std::span<const Vec3> forces);

// O(N^2) SINGULAR reference (eps = 0, self pairs skipped); validates the
// harmonic far-field decomposition.
std::vector<StokesletAccum> stokeslet_singular_direct_all(
    std::span<const Vec3> positions, std::span<const Vec3> forces);

// Combine the four harmonic passes into velocities: see the identity above.
// phi[k], grad_phi[k] are potential/gradient of pass k in {0,1,2}; chi_grad
// is the gradient of the moment pass.
Vec3 combine_harmonic_passes(const Vec3& x, const double phi[3],
                             const Vec3 grad_phi[3], const Vec3& chi_grad);

}  // namespace afmm
