#include "kernels/stokeslet.hpp"

#include <stdexcept>

#include "util/lanes.hpp"

namespace afmm {

// Defined here, not in the header, so that it is always compiled with the
// library's flags: `std::sqrt` vectorizes only under -fno-math-errno.
template <int W>
void StokesletKernel::accumulate_lanes(std::span<const Vec3, W> xt,
                                       std::span<const std::uint32_t, W>,
                                       std::span<const Source> src,
                                       std::span<const std::uint32_t>,
                                       std::span<Accum, W> acc) const {
  double tx[W], ty[W], tz[W];
  double ux[W], uy[W], uz[W];
  for (int l = 0; l < W; ++l) {
    tx[l] = xt[l].x;
    ty[l] = xt[l].y;
    tz[l] = xt[l].z;
    ux[l] = acc[l].u.x;
    uy[l] = acc[l].u.y;
    uz[l] = acc[l].u.z;
  }
  for (const Source& s : src) {
#pragma omp simd
    for (int l = 0; l < W; ++l) {
      const Vec3 c = term(Vec3{tx[l], ty[l], tz[l]} - s.x, s.f);
      ux[l] += c.x;
      uy[l] += c.y;
      uz[l] += c.z;
    }
  }
  for (int l = 0; l < W; ++l) acc[l].u = {ux[l], uy[l], uz[l]};
}

// The two widths, one body: the 4-lane copy is compiled for AVX2.
template void StokesletKernel::accumulate_lanes<2>(
    std::span<const Vec3, 2>, std::span<const std::uint32_t, 2>,
    std::span<const Source>, std::span<const std::uint32_t>,
    std::span<Accum, 2>) const;
template AFMM_TARGET_AVX2 void StokesletKernel::accumulate_lanes<4>(
    std::span<const Vec3, 4>, std::span<const std::uint32_t, 4>,
    std::span<const Source>, std::span<const std::uint32_t>,
    std::span<Accum, 4>) const;

std::vector<StokesletAccum> stokeslet_direct_all(
    const StokesletKernel& kernel, std::span<const Vec3> positions,
    std::span<const Vec3> forces) {
  if (positions.size() != forces.size())
    throw std::invalid_argument("stokeslet_direct_all: size mismatch");
  const std::size_t n = positions.size();
  std::vector<StokesletAccum> out(n);
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t s = 0; s < n; ++s)
      kernel.accumulate(positions[t], static_cast<std::uint32_t>(t),
                        {positions[s], forces[s]},
                        static_cast<std::uint32_t>(s), out[t]);
  return out;
}

std::vector<StokesletAccum> stokeslet_singular_direct_all(
    std::span<const Vec3> positions, std::span<const Vec3> forces) {
  if (positions.size() != forces.size())
    throw std::invalid_argument("stokeslet_singular_direct_all: size mismatch");
  const std::size_t n = positions.size();
  std::vector<StokesletAccum> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t s = 0; s < n; ++s) {
      if (t == s) continue;
      const Vec3 r = positions[t] - positions[s];
      const double r2 = norm2(r);
      const double inv = 1.0 / std::sqrt(r2);
      const double inv3 = inv * inv * inv;
      out[t].u += inv * forces[s] + (dot(r, forces[s]) * inv3) * r;
    }
  }
  return out;
}

Vec3 combine_harmonic_passes(const Vec3& x, const double phi[3],
                             const Vec3 grad_phi[3], const Vec3& chi_grad) {
  Vec3 u{phi[0], phi[1], phi[2]};
  for (int i = 0; i < 3; ++i) {
    double xi_dphi = 0.0;
    for (int j = 0; j < 3; ++j) xi_dphi += x[j] * grad_phi[j][i];
    u[i] += chi_grad[i] - xi_dphi;
  }
  return u;
}

}  // namespace afmm
