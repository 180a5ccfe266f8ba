#include "kernels/gravity.hpp"

#include <stdexcept>

#include "util/lanes.hpp"

namespace afmm {

// Defined here, not in the header, so that it is always compiled with the
// library's flags: `std::sqrt` vectorizes only under -fno-math-errno.
template <int W>
void GravityKernel::accumulate_lanes(std::span<const Vec3, W> xt,
                                     std::span<const std::uint32_t, W> tid,
                                     std::span<const Source> src,
                                     std::span<const std::uint32_t> sid,
                                     std::span<Accum, W> acc) const {
  double tx[W], ty[W], tz[W], tids[W];
  double pot[W], gx[W], gy[W], gz[W];
  // Unrolled before vectorization, so the lane arrays become registers;
  // otherwise GCC 12 vectorizes this loop into the arrays and keeps the
  // accumulators in memory across the whole source loop. (The count must be
  // a literal: GCC 12 rejects a template parameter. 4 covers every W.)
#pragma GCC unroll 4
  for (int l = 0; l < W; ++l) {
    tx[l] = xt[l].x;
    ty[l] = xt[l].y;
    tz[l] = xt[l].z;
    tids[l] = tid[l];  // exact: ids are 32-bit
    pot[l] = acc[l].pot;
    gx[l] = acc[l].grad.x;
    gy[l] = acc[l].grad.y;
    gz[l] = acc[l].grad.z;
  }
  for (std::size_t j = 0; j < src.size(); ++j) {
    const Vec3& sx = src[j].x;
    const double q = src[j].q;
    const double sids = sid[j];
#pragma omp simd
    for (int l = 0; l < W; ++l) {
      const double keep = static_cast<double>(tids[l] != sids);
      const Accum c = term(sx - Vec3{tx[l], ty[l], tz[l]}, q, 1.0 - keep);
      pot[l] += c.pot * keep;
      gx[l] += c.grad.x * keep;
      gy[l] += c.grad.y * keep;
      gz[l] += c.grad.z * keep;
    }
  }
  for (int l = 0; l < W; ++l) acc[l] = {pot[l], {gx[l], gy[l], gz[l]}};
}

// The two widths, one body: the 4-lane copy is compiled for AVX2.
template void GravityKernel::accumulate_lanes<2>(
    std::span<const Vec3, 2>, std::span<const std::uint32_t, 2>,
    std::span<const Source>, std::span<const std::uint32_t>,
    std::span<Accum, 2>) const;
template AFMM_TARGET_AVX2 void GravityKernel::accumulate_lanes<4>(
    std::span<const Vec3, 4>, std::span<const std::uint32_t, 4>,
    std::span<const Source>, std::span<const std::uint32_t>,
    std::span<Accum, 4>) const;

void gravity_direct(const GravityKernel& kernel, std::span<const Vec3> targets,
                    std::span<const std::uint32_t> target_ids,
                    std::span<const GravitySource> sources,
                    std::span<const std::uint32_t> source_ids,
                    std::span<GravityAccum> out) {
  if (targets.size() != target_ids.size() || targets.size() != out.size() ||
      sources.size() != source_ids.size())
    throw std::invalid_argument("gravity_direct: size mismatch");
  for (std::size_t t = 0; t < targets.size(); ++t) {
    GravityAccum acc;
    for (std::size_t s = 0; s < sources.size(); ++s)
      kernel.accumulate(targets[t], target_ids[t], sources[s], source_ids[s],
                        acc);
    out[t] += acc;
  }
}

std::vector<GravityAccum> gravity_direct_all(const GravityKernel& kernel,
                                             std::span<const Vec3> positions,
                                             std::span<const double> charges) {
  const std::size_t n = positions.size();
  std::vector<GravitySource> sources(n);
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    sources[i] = {positions[i], charges[i]};
    ids[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<GravityAccum> out(n);
  gravity_direct(kernel, positions, ids, sources, ids, out);
  return out;
}

}  // namespace afmm
