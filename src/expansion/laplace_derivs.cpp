#include "expansion/laplace_derivs.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/lanes.hpp"

namespace afmm {

LaplaceDerivatives::LaplaceDerivatives(const MultiIndexSet& set) : set_(set) {}

// Defined here, not in the header, so that it is always compiled with the
// library's flags: `std::sqrt` vectorizes only under -fno-math-errno.
template <int W>
void LaplaceDerivatives::evaluate_lanes(std::span<const Vec3, W> r,
                                        double* out) const {
  const int q = set_.max_order();
  const int n = set_.size();
  double rv[3][W], r2[W];
  for (int l = 0; l < W; ++l) {
    rv[0][l] = r[l].x;
    rv[1][l] = r[l].y;
    rv[2][l] = r[l].z;
    r2[l] = norm2(r[l]);
    if (r2[l] == 0.0)
      throw std::domain_error("LaplaceDerivatives: r must be nonzero");
  }

  // Row a holds R^a. The recurrence fills R^a from R^(a+1) one order lower,
  // so R^a is needed only at orders <= Q - a: the count(Q - a) indices
  // graded order puts first. Entry idx of row a holds its W lanes side by
  // side, at row[a][idx * W + lane]. Row 0 is the tensor itself, written
  // straight into `out`; rows 1..Q live in a per-thread scratch.
  std::size_t entries = 0;
  for (int a = 1; a <= q; ++a) entries += MultiIndexSet::count(q - a);
  thread_local std::vector<double> work;
  work.resize(entries * W);
  double* row[MultiIndexSet::kMaxOrder + 1] = {};
  row[0] = out;
  row[1] = work.data();
  for (int a = 1; a < q; ++a)
    row[a + 1] = row[a] + MultiIndexSet::count(q - a) * W;

  // Base column: R^a_0 = (-1)^a (2a-1)!! / |r|^(2a+1).
  double base[W], inv_r2[W];
#pragma omp simd
  for (int l = 0; l < W; ++l) {
    inv_r2[l] = 1.0 / r2[l];
    base[l] = 1.0 / std::sqrt(r2[l]);  // a = 0: 1/|r|
  }
  double dfact = 1.0;  // (2a-1)!!
  for (int a = 0; a <= q; ++a) {
#pragma omp simd
    for (int l = 0; l < W; ++l) {
      row[a][l] = base[l] * dfact;
      base[l] = -base[l] * inv_r2[l];
    }
    dfact *= static_cast<double>(2 * a + 1);
  }

  for (int idx = 1; idx < n; ++idx) {
    const int o = set_.order(idx);
    const int d = set_.pred_dim(idx);
    const int i1 = set_.sub(idx, d);    // alpha - e_d
    const int i2 = set_.sub2(idx, d);   // alpha - 2 e_d (may be -1)
    const double ad = static_cast<double>(set_[idx][d] - 1);
    const double* rd = rv[d];
    const std::size_t v0 = static_cast<std::size_t>(idx) * W;
    const std::size_t w1 = static_cast<std::size_t>(i1) * W;
    if (i2 < 0) {
      for (int a = 0; a <= q - o; ++a) {
        double* v = row[a] + v0;
        const double* u = row[a + 1];
#pragma omp simd
        for (int l = 0; l < W; ++l) v[l] = rd[l] * u[w1 + l];
      }
    } else {
      const std::size_t w2 = static_cast<std::size_t>(i2) * W;
      for (int a = 0; a <= q - o; ++a) {
        double* v = row[a] + v0;
        const double* u = row[a + 1];
#pragma omp simd
        for (int l = 0; l < W; ++l) v[l] = rd[l] * u[w1 + l] + ad * u[w2 + l];
      }
    }
  }
}

// The three widths, one body: the 4-lane copy is compiled for AVX2.
template void LaplaceDerivatives::evaluate_lanes<1>(std::span<const Vec3, 1>,
                                                    double*) const;
template void LaplaceDerivatives::evaluate_lanes<2>(std::span<const Vec3, 2>,
                                                    double*) const;
template AFMM_TARGET_AVX2 void LaplaceDerivatives::evaluate_lanes<4>(
    std::span<const Vec3, 4>, double*) const;

}  // namespace afmm
