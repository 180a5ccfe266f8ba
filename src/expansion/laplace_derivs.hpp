// Exact partial derivatives of the Laplace Green's function G(r) = 1/|r|.
//
// LaplaceDerivatives fills T[alpha] = D^alpha (1/|r|) for every alpha with
// |alpha| <= Q using the McMurchie-Davidson-style recurrence
//
//   R^n_0        = (-1)^n (2n-1)!! / |r|^(2n+1)
//   R^n_{a+e_d}  = a_d * R^{n+1}_{a-e_d} + r_d * R^{n+1}_a
//   T_alpha      = R^0_alpha
//
// which is exact in double precision (no truncation; only rounding). R^n is
// needed only at orders <= Q - n, so the recurrence runs over that triangle,
// C(Q+4, 4) entries per lane (1,001 at Q = 10), not the (Q+1) x |set|
// rectangle (3,146). Its row 0 is the output; rows 1..Q sit in a per-thread
// scratch.
#pragma once

#include <span>

#include "expansion/multi_index.hpp"
#include "util/vec3.hpp"

namespace afmm {

class LaplaceDerivatives {
 public:
  // `set` must outlive this object; its max_order() is the derivative order Q.
  explicit LaplaceDerivatives(const MultiIndexSet& set);

  // Fills out[idx] = D^alpha(1/|r|)(r) for each idx in the set: the one-lane
  // evaluate_lanes. `out` must have set.size() entries. r must be nonzero.
  void evaluate(const Vec3& r, double* out) const {
    evaluate_lanes<1>(std::span<const Vec3, 1>(&r, 1), out);
  }

  // Lane l fills out[idx * W + l] = D^alpha(1/|r[l]|)(r[l]): the W lanes of
  // each entry side by side, the layout ExpansionContext::m2l_lanes<W>
  // contracts. The W offsets run the recurrence in lock-step SIMD lanes,
  // each lane doing the one-lane operations in the same order, so the width
  // moves no bit. Built for W = 1, 2 and 4; W = 4 needs AVX2
  // (util/lanes.hpp). Throws std::domain_error if any r[l] is zero.
  template <int W>
  void evaluate_lanes(std::span<const Vec3, W> r, double* out) const;

  const MultiIndexSet& set() const { return set_; }

 private:
  const MultiIndexSet& set_;
};

}  // namespace afmm
