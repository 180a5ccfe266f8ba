// Multi-index machinery for Cartesian Taylor expansions.
//
// A multi-index alpha = (i, j, k) stands for the monomial x^i y^j z^k and the
// partial derivative d^i_x d^j_y d^k_z. MultiIndexSet enumerates all indices
// with total order |alpha| <= p in graded lexicographic order and provides
// the lookup tables the operators in operators.cpp need:
//
//   * sub(idx, d)   : index of alpha - e_d (or -1)
//   * sub2(idx, d)  : index of alpha - 2 e_d (or -1)
//   * pred(idx)     : (dim, index of alpha - e_dim) for the first nonzero dim,
//                     used to build powers/derivatives by recurrence
//   * order(idx)    : |alpha|
//
// The set for order p has (p+1)(p+2)(p+3)/6 members.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace afmm {

struct MultiIndex {
  std::uint8_t i = 0;
  std::uint8_t j = 0;
  std::uint8_t k = 0;
  int order() const { return int(i) + int(j) + int(k); }
  int operator[](int d) const { return d == 0 ? i : (d == 1 ? j : k); }
  bool operator==(const MultiIndex&) const = default;
};

class MultiIndexSet {
 public:
  static constexpr int kMaxOrder = 40;

  // max_order must be in [0, kMaxOrder].
  explicit MultiIndexSet(int max_order);

  int max_order() const { return p_; }
  int size() const { return static_cast<int>(indices_.size()); }
  const MultiIndex& operator[](int idx) const { return indices_[idx]; }

  // Linear index of (i, j, k); -1 if outside the set.
  int find(int i, int j, int k) const;

  int order(int idx) const { return indices_[idx].order(); }
  int sub(int idx, int d) const { return sub_[3 * idx + d]; }
  int sub2(int idx, int d) const { return sub2_[3 * idx + d]; }
  // First dimension with a nonzero exponent; -1 for the zero index.
  int pred_dim(int idx) const { return pred_dim_[idx]; }

  // Number of indices with total order <= o.
  static int count(int o) { return (o + 1) * (o + 2) * (o + 3) / 6; }

  // Fills t[idx] = v^alpha / alpha! for every index in the set.
  // `t` must have size() entries.
  void scaled_powers(const double v[3], double* t) const;

 private:
  int p_;
  std::vector<MultiIndex> indices_;
  std::vector<int> lookup_;  // dense (p+1)^3 cube -> linear index or -1
  std::vector<int> sub_;
  std::vector<int> sub2_;
  std::vector<int> pred_dim_;
  std::vector<double> pred_scale_;  // 1 / alpha_d for the predecessor step
};

}  // namespace afmm
