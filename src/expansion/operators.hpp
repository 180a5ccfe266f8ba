// The six FMM translation/evaluation operators on Cartesian Taylor
// expansions, plus the M2P point evaluation the Barnes-Hut baseline uses.
//
// Conventions (see DESIGN.md):
//   * Multipole coefficients about a center c:
//       M_alpha = sum_i q_i (x_i - c)^alpha / alpha!
//   * The far potential of those sources:
//       Phi(x) = sum_alpha (-1)^|alpha| M_alpha D^alpha G(x - c),  G = 1/|r|
//   * Local coefficients about c are raw Taylor derivatives of the far field:
//       L_beta = D^beta Phi(c),  so  Phi(x) = sum_beta L_beta (x-c)^beta/beta!
//
// All operators ADD into their destination expansion. An ExpansionContext is
// immutable after construction and safe to share across threads.
#pragma once

#include <span>
#include <vector>

#include "expansion/laplace_derivs.hpp"
#include "expansion/multi_index.hpp"
#include "util/vec3.hpp"

namespace afmm {

// Potential and gradient of the far-field at one evaluation point.
struct PointValue {
  double potential = 0.0;
  Vec3 gradient;
};

class ExpansionContext {
 public:
  explicit ExpansionContext(int order);

  // Not address-stable: derivs_ references set_q_, so a moved/copied context
  // would evaluate through a dangling reference. Holders that must move own
  // the context behind a pointer (see core/problems.hpp).
  ExpansionContext(const ExpansionContext&) = delete;
  ExpansionContext& operator=(const ExpansionContext&) = delete;

  int order() const { return p_; }
  // Number of coefficients per expansion (multipole and local alike).
  int ncoef() const { return set_p_.size(); }

  const MultiIndexSet& index_set() const { return set_p_; }
  const MultiIndexSet& derivative_set() const { return set_q_; }

  // --- particle <-> expansion -------------------------------------------

  // M[a] += sum_i q_i (x_i - center)^a / a!
  void p2m(const Vec3& center, const Vec3* pos, const double* charge,
           int count, double* M) const;

  // Evaluate the local expansion (and its gradient) at x.
  PointValue l2p(const Vec3& center, const double* L, const Vec3& x) const;

  // Evaluate a multipole expansion directly at a distant point (the
  // treecode's cell-body interaction, core/barnes_hut.hpp).
  PointValue m2p(const Vec3& center, const double* M, const Vec3& x) const;

  // --- expansion <-> expansion ------------------------------------------

  // Shift child multipole (about `from`) into parent multipole (about `to`).
  void m2m(const Vec3& from, const Vec3& to, const double* Mchild,
           double* Mparent) const;

  // Convert a multipole about `src` into a local about `dst`: the one-lane,
  // one-rhs m2l_lanes.
  void m2l(const Vec3& src, const Vec3& dst, const double* M, double* L) const;

  // Multi-rhs M2L sharing one derivative-tensor evaluation: applies the
  // conversion to `nrhs` expansions laid out with the given stride (in
  // doubles) between consecutive rhs. The one-lane m2l_lanes.
  void m2l_multi(const Vec3& src, const Vec3& dst, const double* M, double* L,
                 int nrhs, int stride) const;

  // W independent M2Ls, one per SIMD lane. Lane l converts the nrhs
  // multipoles starting at M[l] (laid out as in m2l_multi) at offset
  // r[l] = dst - src and adds them into lane l of the lane-interleaved local
  // block L: coefficient beta of rhs k of lane l is
  // L[(k * stride + beta) * W + l]. The W derivative tensors are evaluated
  // together (LaplaceDerivatives::evaluate_lanes<W>) and contracted together,
  // each accumulator one W-wide vector, so every lane performs m2l_multi's
  // operations in m2l_multi's order: lane l's column is bit-identical to one
  // m2l_multi call, and no lane's input reaches another lane's column. Built
  // for W = 1, 2 and 4; W = 4 needs AVX2 (util/lanes.hpp). Throws
  // std::domain_error if any r[l] is zero.
  template <int W>
  void m2l_lanes(std::span<const Vec3, W> r, const double* const* M,
                 double* L, int nrhs, int stride) const;

  // Shift parent local (about `from`) into child local (about `to`).
  void l2l(const Vec3& from, const Vec3& to, const double* Lparent,
           double* Lchild) const;

  // --- ABFT consistency checks (sdc/) -----------------------------------
  // Both invariants hold BITWISE on an intact upward pass, so they are
  // corruption tripwires with a zero false-positive rate: any mismatch is a
  // flipped bit, not roundoff.

  // In-order fp sum of the children's monopoles (coefficient of alpha = 0).
  // M2M propagates the monopole with exact weight 1 (the zero multi-index's
  // scaled power), so a parent's monopole equals this sum exactly. For the
  // gravity rhs this is conservation of total mass under aggregation.
  double reaggregated_monopole(const double* const* child_M,
                               int num_children) const;

  // Recompute a parent multipole block from its children through M2M into
  // `scratch` (resized to ncoef()) and compare bitwise against `Mparent`.
  // Children must be passed in tree child order: the recomputation then
  // replays the upsweep's exact accumulation into a zeroed block.
  bool m2m_reaggregation_matches(const Vec3* child_centers,
                                 const double* const* child_M,
                                 int num_children, const Vec3& parent_center,
                                 const double* Mparent,
                                 std::vector<double>& scratch) const;

  // --- cost model hooks ----------------------------------------------------
  // Floating point work per single application, used by machine/ to assign
  // task durations. These count the structural multiply-adds of each
  // operator, which is exactly the "predictable cost in FLOPS" property the
  // paper's Section I.C relies on.
  double flops_p2m_per_body() const { return 2.0 * ncoef(); }
  double flops_l2p_per_body() const { return 8.0 * ncoef(); }
  double flops_m2m() const { return 2.0 * static_cast<double>(triples_.size()); }
  double flops_l2l() const { return flops_m2m(); }
  double flops_m2l() const {
    // Derivative tensor build + the dense (alpha, beta) contraction.
    return flops_deriv_tensor() + 2.0 * static_cast<double>(m2l_rows_.size());
  }
  double flops_deriv_tensor() const {
    return 4.0 * set_q_.size() * (set_q_.max_order() + 1) / 2.0;
  }

 private:
  int p_;
  MultiIndexSet set_p_;  // expansion indices, order p
  MultiIndexSet set_q_;  // derivative indices, order 2p (covers M2L and M2P)
  LaplaceDerivatives derivs_;

  // (hi, lo, shift) with lo <= hi componentwise, shift = hi - lo.
  struct Triple {
    int hi;
    int lo;
    int shift;
  };
  std::vector<Triple> triples_;

  // Dense M2L contraction table, row-major over (beta, alpha): entry
  // beta * ncoef() + alpha is the set_q_ index of alpha + beta, so
  // L[beta] += sign_alpha * M[alpha] * T[row_beta[alpha]].
  std::vector<int> m2l_rows_;
  std::vector<double> sign_;        // (-1)^|alpha| over set_p_
  std::vector<int> lift_;           // set_p_ index -> set_q_ index (same alpha)
  std::vector<int> lift_add_[3];    // set_p_ alpha -> set_q_ index of alpha+e_d
};

}  // namespace afmm
