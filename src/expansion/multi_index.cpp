#include "expansion/multi_index.hpp"

#include <stdexcept>

namespace afmm {

MultiIndexSet::MultiIndexSet(int max_order) : p_(max_order) {
  if (max_order < 0 || max_order > kMaxOrder)
    throw std::invalid_argument("MultiIndexSet: order out of range");

  // Graded lexicographic enumeration: orders o = 0..p ascending, and within
  // an order i descending, then j descending, so x-heavy monomials come
  // first. Graded order puts the count(o) indices of order <= o first.
  for (int o = 0; o <= p_; ++o)
    for (int i = o; i >= 0; --i)
      for (int j = o - i; j >= 0; --j) {
        const int k = o - i - j;
        indices_.push_back({static_cast<std::uint8_t>(i),
                            static_cast<std::uint8_t>(j),
                            static_cast<std::uint8_t>(k)});
      }

  const int n1 = p_ + 1;
  lookup_.assign(n1 * n1 * n1, -1);
  for (int idx = 0; idx < size(); ++idx) {
    const auto& a = indices_[idx];
    lookup_[(a.i * n1 + a.j) * n1 + a.k] = idx;
  }

  sub_.assign(3 * size(), -1);
  sub2_.assign(3 * size(), -1);
  pred_dim_.assign(size(), -1);
  pred_scale_.assign(size(), 0.0);
  for (int idx = 0; idx < size(); ++idx) {
    const auto& a = indices_[idx];
    const int e[3] = {a.i, a.j, a.k};
    for (int d = 0; d < 3; ++d) {
      if (e[d] >= 1)
        sub_[3 * idx + d] =
            find(a.i - (d == 0), a.j - (d == 1), a.k - (d == 2));
      if (e[d] >= 2)
        sub2_[3 * idx + d] =
            find(a.i - 2 * (d == 0), a.j - 2 * (d == 1), a.k - 2 * (d == 2));
    }
    for (int d = 0; d < 3; ++d) {
      if (e[d] > 0) {
        pred_dim_[idx] = d;
        pred_scale_[idx] = 1.0 / static_cast<double>(e[d]);
        break;
      }
    }
  }
}

int MultiIndexSet::find(int i, int j, int k) const {
  const int n1 = p_ + 1;
  if (i < 0 || j < 0 || k < 0 || i + j + k > p_) return -1;
  return lookup_[(i * n1 + j) * n1 + k];
}

void MultiIndexSet::scaled_powers(const double v[3], double* t) const {
  t[0] = 1.0;
  for (int idx = 1; idx < size(); ++idx) {
    const int d = pred_dim_[idx];
    t[idx] = t[sub_[3 * idx + d]] * v[d] * pred_scale_[idx];
  }
}

}  // namespace afmm
