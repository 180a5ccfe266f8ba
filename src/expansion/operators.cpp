#include "expansion/operators.hpp"

#include <cstring>
#include <stdexcept>

#include "util/lanes.hpp"

namespace afmm {

ExpansionContext::ExpansionContext(int order)
    : p_(order),
      set_p_(order),
      set_q_(2 * order >= order + 1 ? 2 * order : order + 1),
      derivs_(set_q_) {
  if (order < 1 || order > 16)
    throw std::invalid_argument("ExpansionContext: order must be in [1,16]");

  const int n = set_p_.size();

  // Lower-triangular shift triples for M2M / L2L.
  for (int hi = 0; hi < n; ++hi) {
    const auto& b = set_p_[hi];
    for (int lo = 0; lo < n; ++lo) {
      const auto& a = set_p_[lo];
      if (a.i <= b.i && a.j <= b.j && a.k <= b.k) {
        const int shift = set_p_.find(b.i - a.i, b.j - a.j, b.k - a.k);
        triples_.push_back({hi, lo, shift});
      }
    }
  }

  // Dense M2L contraction table, one row of alpha + beta indices per beta.
  m2l_rows_.reserve(static_cast<std::size_t>(n) * n);
  for (int beta = 0; beta < n; ++beta) {
    const auto& b = set_p_[beta];
    for (int alpha = 0; alpha < n; ++alpha) {
      const auto& a = set_p_[alpha];
      m2l_rows_.push_back(set_q_.find(a.i + b.i, a.j + b.j, a.k + b.k));
    }
  }

  sign_.resize(n);
  lift_.resize(n);
  for (int d = 0; d < 3; ++d) lift_add_[d].resize(n);
  for (int idx = 0; idx < n; ++idx) {
    const auto& a = set_p_[idx];
    sign_[idx] = (a.order() % 2 == 0) ? 1.0 : -1.0;
    lift_[idx] = set_q_.find(a.i, a.j, a.k);
    lift_add_[0][idx] = set_q_.find(a.i + 1, a.j, a.k);
    lift_add_[1][idx] = set_q_.find(a.i, a.j + 1, a.k);
    lift_add_[2][idx] = set_q_.find(a.i, a.j, a.k + 1);
  }
}

void ExpansionContext::p2m(const Vec3& center, const Vec3* pos,
                           const double* charge, int count, double* M) const {
  const int n = ncoef();
  thread_local std::vector<double> t;
  t.resize(n);
  for (int i = 0; i < count; ++i) {
    const double v[3] = {pos[i].x - center.x, pos[i].y - center.y,
                         pos[i].z - center.z};
    set_p_.scaled_powers(v, t.data());
    const double q = charge[i];
    for (int a = 0; a < n; ++a) M[a] += q * t[a];
  }
}

PointValue ExpansionContext::l2p(const Vec3& center, const double* L,
                                 const Vec3& x) const {
  const int n = ncoef();
  thread_local std::vector<double> t;
  t.resize(n);
  const double v[3] = {x.x - center.x, x.y - center.y, x.z - center.z};
  set_p_.scaled_powers(v, t.data());

  PointValue out;
  for (int b = 0; b < n; ++b) {
    out.potential += L[b] * t[b];
    for (int d = 0; d < 3; ++d) {
      const int s = set_p_.sub(b, d);
      if (s >= 0) out.gradient[d] += L[b] * t[s];
    }
  }
  return out;
}

PointValue ExpansionContext::m2p(const Vec3& center, const double* M,
                                 const Vec3& x) const {
  const int n = ncoef();
  thread_local std::vector<double> T;
  T.resize(set_q_.size());
  derivs_.evaluate(x - center, T.data());

  PointValue out;
  for (int a = 0; a < n; ++a) {
    const double m = sign_[a] * M[a];
    out.potential += m * T[lift_[a]];
    for (int d = 0; d < 3; ++d) out.gradient[d] += m * T[lift_add_[d][a]];
  }
  return out;
}

void ExpansionContext::m2m(const Vec3& from, const Vec3& to,
                           const double* Mchild, double* Mparent) const {
  thread_local std::vector<double> t;
  t.resize(ncoef());
  const double v[3] = {from.x - to.x, from.y - to.y, from.z - to.z};
  set_p_.scaled_powers(v, t.data());
  for (const auto& tr : triples_)
    Mparent[tr.hi] += Mchild[tr.lo] * t[tr.shift];
}

void ExpansionContext::m2l(const Vec3& src, const Vec3& dst, const double* M,
                           double* L) const {
  m2l_multi(src, dst, M, L, 1, ncoef());
}

void ExpansionContext::m2l_multi(const Vec3& src, const Vec3& dst,
                                 const double* M, double* L, int nrhs,
                                 int stride) const {
  const Vec3 r = dst - src;
  m2l_lanes<1>(std::span<const Vec3, 1>(&r, 1), &M, L, nrhs, stride);
}

namespace {
// W doubles as one SIMD register. It may sit at any double-aligned address
// and alias doubles, so lane-interleaved double arrays are read and written
// through it in place: element i of a V* is the W lanes of entry i. One lane
// is a plain double (GCC compiles a one-element vector type through memory).
template <int W>
struct LaneVector {
  typedef double V __attribute__((vector_size(W * sizeof(double)),
                                  aligned(sizeof(double)), may_alias));
};
template <>
struct LaneVector<1> {
  using V = double;
};
}  // namespace

template <int W>
void ExpansionContext::m2l_lanes(std::span<const Vec3, W> r,
                                 const double* const* M, double* L, int nrhs,
                                 int stride) const {
  using V = typename LaneVector<W>::V;
  const int n = ncoef();
  thread_local std::vector<double> T, Ms;
  T.resize(W * set_q_.size());
  Ms.resize(W * n);
  derivs_.evaluate_lanes<W>(r, T.data());
  const V* t = reinterpret_cast<const V*>(T.data());
  const V* ms = reinterpret_cast<const V*>(Ms.data());
  for (int k = 0; k < nrhs; ++k) {
    const std::ptrdiff_t rhs = static_cast<std::ptrdiff_t>(k) * stride;
    for (int a = 0; a < n; ++a)
      for (int l = 0; l < W; ++l) Ms[a * W + l] = sign_[a] * M[l][rhs + a];
    V* lv = reinterpret_cast<V*>(L) + rhs;
    // Each L[beta] is summed in a local accumulator that starts from the
    // incoming value and adds its row's terms in ascending alpha -- the same
    // floating-point sequence as one `L[beta] +=` per term, so results are
    // bit-identical to the pairwise contraction. Four rows at a time keep
    // four independent add chains in flight; each chain is W lanes wide.
    int b = 0;
    for (; b + 4 <= n; b += 4) {
      const int* r0 = m2l_rows_.data() + static_cast<std::ptrdiff_t>(b) * n;
      const int* r1 = r0 + n;
      const int* r2 = r1 + n;
      const int* r3 = r2 + n;
      V acc0 = lv[b], acc1 = lv[b + 1], acc2 = lv[b + 2], acc3 = lv[b + 3];
      for (int a = 0; a < n; ++a) {
        acc0 += ms[a] * t[r0[a]];
        acc1 += ms[a] * t[r1[a]];
        acc2 += ms[a] * t[r2[a]];
        acc3 += ms[a] * t[r3[a]];
      }
      lv[b] = acc0;
      lv[b + 1] = acc1;
      lv[b + 2] = acc2;
      lv[b + 3] = acc3;
    }
    for (; b < n; ++b) {
      const int* row = m2l_rows_.data() + static_cast<std::ptrdiff_t>(b) * n;
      V acc = lv[b];
      for (int a = 0; a < n; ++a) acc += ms[a] * t[row[a]];
      lv[b] = acc;
    }
  }
}

// The three widths, one body: the 4-lane copy is compiled for AVX2.
template void ExpansionContext::m2l_lanes<1>(std::span<const Vec3, 1>,
                                             const double* const*, double*,
                                             int, int) const;
template void ExpansionContext::m2l_lanes<2>(std::span<const Vec3, 2>,
                                             const double* const*, double*,
                                             int, int) const;
template AFMM_TARGET_AVX2 void ExpansionContext::m2l_lanes<4>(
    std::span<const Vec3, 4>, const double* const*, double*, int, int) const;

void ExpansionContext::l2l(const Vec3& from, const Vec3& to,
                           const double* Lparent, double* Lchild) const {
  thread_local std::vector<double> t;
  t.resize(ncoef());
  const double v[3] = {to.x - from.x, to.y - from.y, to.z - from.z};
  set_p_.scaled_powers(v, t.data());
  // L'_lo = sum_{hi >= lo} L_hi * t_{hi - lo}: the transpose of M2M.
  for (const auto& tr : triples_)
    Lchild[tr.lo] += Lparent[tr.hi] * t[tr.shift];
}

double ExpansionContext::reaggregated_monopole(const double* const* child_M,
                                               int num_children) const {
  // Exactly the fp operations the upsweep used for coefficient 0: the only
  // triple writing index 0 is (0,0,0) with scaled power exactly 1.0, so
  // Mparent[0] accumulated `+= Mchild[0] * 1.0` per child in child order.
  double m = 0.0;
  for (int c = 0; c < num_children; ++c) m += child_M[c][0];
  return m;
}

bool ExpansionContext::m2m_reaggregation_matches(
    const Vec3* child_centers, const double* const* child_M, int num_children,
    const Vec3& parent_center, const double* Mparent,
    std::vector<double>& scratch) const {
  scratch.assign(static_cast<std::size_t>(ncoef()), 0.0);
  for (int c = 0; c < num_children; ++c)
    m2m(child_centers[c], parent_center, child_M[c], scratch.data());
  return std::memcmp(scratch.data(), Mparent,
                     static_cast<std::size_t>(ncoef()) * sizeof(double)) == 0;
}

}  // namespace afmm
