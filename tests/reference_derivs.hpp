// Reference derivative tensor for the bit-identity tests: the library's
// original scalar McMurchie-Davidson recurrence over a rectangular
// (Q+1) x |set| scratch, one offset at a time, its operations unchanged. The
// lane recurrence (LaplaceDerivatives::evaluate_lanes<W>, every W) must
// reproduce it bit for bit, so the tests memcmp against this copy rather
// than against the code under test.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "expansion/multi_index.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace afmm {

// out[idx] = D^alpha(1/|r|)(r) for every idx in `set`; r must be nonzero.
inline void reference_derivatives(const MultiIndexSet& set, const Vec3& r,
                                  double* out) {
  const int q = set.max_order();
  const int n = set.size();
  const double r2 = norm2(r);
  // work[a * n + idx] = R^a_idx, a = 0..Q.
  std::vector<double> work(static_cast<std::size_t>(q + 1) * n);

  // Base column: R^a_0 = (-1)^a (2a-1)!! / |r|^(2a+1).
  const double inv_r2 = 1.0 / r2;
  double base = 1.0 / std::sqrt(r2);
  double dfact = 1.0;
  for (int a = 0; a <= q; ++a) {
    work[static_cast<std::size_t>(a) * n] = base * dfact;
    base = -base * inv_r2;
    dfact *= static_cast<double>(2 * a + 1);
  }

  // R^a_alpha = r_d R^(a+1)_(alpha-e_d) + (alpha_d - 1) R^(a+1)_(alpha-2e_d).
  const double rv[3] = {r.x, r.y, r.z};
  for (int idx = 1; idx < n; ++idx) {
    const int o = set.order(idx);
    const int d = set.pred_dim(idx);
    const int i1 = set.sub(idx, d);
    const int i2 = set.sub2(idx, d);
    const double ad = static_cast<double>(set[idx][d] - 1);
    for (int a = 0; a <= q - o; ++a) {
      double v = rv[d] * work[static_cast<std::size_t>(a + 1) * n + i1];
      if (i2 >= 0) v += ad * work[static_cast<std::size_t>(a + 1) * n + i2];
      work[static_cast<std::size_t>(a) * n + idx] = v;
    }
  }

  for (int idx = 0; idx < n; ++idx) out[idx] = work[idx];
}

// `count` seeded nonzero offsets: each component is zero with probability
// 1/4 and otherwise of either sign, and |r| is log-uniform in [1e-3, 1e3].
inline std::vector<Vec3> reference_offsets(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Vec3> out;
  while (static_cast<int>(out.size()) < count) {
    Vec3 v;
    for (int d = 0; d < 3; ++d)
      v[d] = rng.uniform() < 0.25 ? 0.0 : rng.uniform(-1.0, 1.0);
    if (norm2(v) == 0.0) continue;
    out.push_back(v * (std::pow(10.0, rng.uniform(-3.0, 3.0)) / norm(v)));
  }
  return out;
}

}  // namespace afmm
