#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "expansion/laplace_derivs.hpp"
#include "reference_derivs.hpp"
#include "util/lanes.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

// Central finite difference of D^alpha(1/r) one more derivative deep.
double finite_diff(const MultiIndexSet& set, const LaplaceDerivatives& ld,
                   const Vec3& r, int idx_lower, int d, double h) {
  std::vector<double> plus(set.size()), minus(set.size());
  Vec3 rp = r, rm = r;
  rp[d] += h;
  rm[d] -= h;
  ld.evaluate(rp, plus.data());
  ld.evaluate(rm, minus.data());
  return (plus[idx_lower] - minus[idx_lower]) / (2.0 * h);
}

TEST(LaplaceDerivatives, ZeroOrderIsInverseDistance) {
  MultiIndexSet set(0);
  LaplaceDerivatives ld(set);
  double out[1];
  ld.evaluate({1, 2, 2}, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0 / 3.0);
}

TEST(LaplaceDerivatives, FirstDerivativesAnalytic) {
  MultiIndexSet set(1);
  LaplaceDerivatives ld(set);
  Rng rng(3);
  std::vector<double> out(set.size());
  for (int trial = 0; trial < 30; ++trial) {
    const Vec3 r{rng.uniform(0.5, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)};
    ld.evaluate(r, out.data());
    const double r3 = std::pow(norm(r), 3);
    EXPECT_NEAR(out[set.find(1, 0, 0)], -r.x / r3, 1e-13);
    EXPECT_NEAR(out[set.find(0, 1, 0)], -r.y / r3, 1e-13);
    EXPECT_NEAR(out[set.find(0, 0, 1)], -r.z / r3, 1e-13);
  }
}

TEST(LaplaceDerivatives, SecondDerivativesAnalytic) {
  MultiIndexSet set(2);
  LaplaceDerivatives ld(set);
  const Vec3 r{0.7, -1.1, 0.4};
  std::vector<double> out(set.size());
  ld.evaluate(r, out.data());
  const double n = norm(r);
  const double r3 = n * n * n;
  const double r5 = r3 * n * n;
  EXPECT_NEAR(out[set.find(2, 0, 0)], 3 * r.x * r.x / r5 - 1 / r3, 1e-12);
  EXPECT_NEAR(out[set.find(0, 2, 0)], 3 * r.y * r.y / r5 - 1 / r3, 1e-12);
  EXPECT_NEAR(out[set.find(0, 0, 2)], 3 * r.z * r.z / r5 - 1 / r3, 1e-12);
  EXPECT_NEAR(out[set.find(1, 1, 0)], 3 * r.x * r.y / r5, 1e-12);
  EXPECT_NEAR(out[set.find(1, 0, 1)], 3 * r.x * r.z / r5, 1e-12);
  EXPECT_NEAR(out[set.find(0, 1, 1)], 3 * r.y * r.z / r5, 1e-12);
}

class LaplaceDerivativesOrder : public ::testing::TestWithParam<int> {};

TEST_P(LaplaceDerivativesOrder, MatchesFiniteDifferences) {
  const int q = GetParam();
  MultiIndexSet set(q);
  LaplaceDerivatives ld(set);
  Rng rng(q);
  std::vector<double> out(set.size());
  for (int trial = 0; trial < 5; ++trial) {
    const Vec3 r{rng.uniform(1.0, 2.0), rng.uniform(-2.0, -1.0),
                 rng.uniform(1.0, 2.0)};
    ld.evaluate(r, out.data());
    // Check each index of order >= 1 against a central difference of its
    // predecessor.
    for (int idx = 1; idx < set.size(); ++idx) {
      const int d = set.pred_dim(idx);
      const int lower = set.sub(idx, d);
      const double fd = finite_diff(set, ld, r, lower, d, 1e-5);
      const double scale = std::max(1.0, std::abs(out[idx]));
      EXPECT_NEAR(out[idx], fd, 2e-4 * scale)
          << "q=" << q << " idx=" << idx << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, LaplaceDerivativesOrder,
                         ::testing::Values(2, 3, 4, 5, 6));

class LaplaceHarmonicity : public ::testing::TestWithParam<int> {};

TEST_P(LaplaceHarmonicity, EveryDerivativeIsHarmonic) {
  // 1/r is harmonic away from the origin, hence so is every derivative:
  // T_{a+2ex} + T_{a+2ey} + T_{a+2ez} = 0 for all |a| <= Q-2.
  const int q = GetParam();
  MultiIndexSet set(q);
  LaplaceDerivatives ld(set);
  Rng rng(100 + q);
  std::vector<double> t(set.size());
  for (int trial = 0; trial < 10; ++trial) {
    const Vec3 r{rng.uniform(-2, 2), rng.uniform(0.3, 2), rng.uniform(-2, 2)};
    ld.evaluate(r, t.data());
    for (int idx = 0; idx < set.size(); ++idx) {
      const auto& a = set[idx];
      if (a.order() > q - 2) continue;
      const int xx = set.find(a.i + 2, a.j, a.k);
      const int yy = set.find(a.i, a.j + 2, a.k);
      const int zz = set.find(a.i, a.j, a.k + 2);
      const double lap = t[xx] + t[yy] + t[zz];
      const double scale =
          std::abs(t[xx]) + std::abs(t[yy]) + std::abs(t[zz]) + 1e-300;
      EXPECT_LT(std::abs(lap) / scale, 1e-10) << "q=" << q << " idx=" << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, LaplaceHarmonicity,
                         ::testing::Values(4, 6, 8, 10, 12));

TEST(LaplaceDerivatives, SymmetryUnderNegation) {
  // D^a(1/r)(-r) = (-1)^|a| D^a(1/r)(r).
  MultiIndexSet set(6);
  LaplaceDerivatives ld(set);
  std::vector<double> a(set.size()), b(set.size());
  const Vec3 r{0.9, -0.3, 1.4};
  ld.evaluate(r, a.data());
  ld.evaluate(-r, b.data());
  for (int idx = 0; idx < set.size(); ++idx) {
    const double sign = set.order(idx) % 2 == 0 ? 1.0 : -1.0;
    EXPECT_NEAR(b[idx], sign * a[idx],
                1e-12 * std::max(1.0, std::abs(a[idx])));
  }
}

TEST(LaplaceDerivatives, HomogeneityUnderScaling) {
  // D^a(1/r) is homogeneous of degree -(|a|+1): T(s r) = s^-(|a|+1) T(r).
  MultiIndexSet set(5);
  LaplaceDerivatives ld(set);
  std::vector<double> a(set.size()), b(set.size());
  const Vec3 r{1.1, 0.4, -0.8};
  const double s = 2.5;
  ld.evaluate(r, a.data());
  ld.evaluate(s * r, b.data());
  for (int idx = 0; idx < set.size(); ++idx) {
    const double expect = a[idx] * std::pow(s, -(set.order(idx) + 1));
    EXPECT_NEAR(b[idx], expect, 1e-12 * std::max(1.0, std::abs(expect)));
  }
}

TEST(LaplaceDerivatives, ThrowsAtOrigin) {
  MultiIndexSet set(2);
  LaplaceDerivatives ld(set);
  std::vector<double> out(set.size());
  EXPECT_THROW(ld.evaluate({0, 0, 0}, out.data()), std::domain_error);
}

// Offsets for the bit-identity checks: the seeded ones plus axis-aligned and
// all-negative vectors at both ends of the |r| range.
std::vector<Vec3> bit_identity_offsets() {
  auto r = reference_offsets(7, 64);
  for (const Vec3 v : {Vec3{1e-3, 0, 0}, Vec3{0, -1e3, 0}, Vec3{0, 0, 1},
                       Vec3{-1, -1, -1}, Vec3{-1e-3, 1e-3, 0},
                       Vec3{-1e3, 0, -1e3}})
    r.push_back(v);
  return r;
}

TEST(LaplaceDerivatives, EvaluateBitIdenticalToReference) {
  const auto offsets = bit_identity_offsets();
  for (int q = 0; q <= 16; ++q) {
    MultiIndexSet set(q);
    LaplaceDerivatives ld(set);
    std::vector<double> got(set.size()), want(set.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      ld.evaluate(offsets[i], got.data());
      reference_derivatives(set, offsets[i], want.data());
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << "Q=" << q << " offset " << i;
    }
  }
}

// evaluate_lanes<W> at both SIMD widths; width 4 runs the AVX2 routine, so
// it is skipped on a CPU without AVX2.
class LaplaceLanes : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (GetParam() > lane_width()) GTEST_SKIP() << "CPU lacks AVX2";
  }
};
INSTANTIATE_TEST_SUITE_P(Width, LaplaceLanes, ::testing::Values(2, 4),
                         ::testing::PrintToStringParamName());

// Every lane of every call, W distinct offsets per call, against the
// reference evaluated one offset at a time. Lane l of entry idx sits at
// out[idx * W + l].
template <int W>
void expect_lanes_match_reference() {
  auto offsets = bit_identity_offsets();
  while (offsets.size() % W != 0)
    offsets.push_back(offsets[offsets.size() / 2]);
  for (int q = 0; q <= 16; ++q) {
    MultiIndexSet set(q);
    LaplaceDerivatives ld(set);
    const std::size_t n = set.size();
    std::vector<double> got(W * n), want(n), lane(n);
    for (std::size_t i = 0; i < offsets.size(); i += W) {
      ld.evaluate_lanes<W>(std::span<const Vec3, W>(&offsets[i], W),
                           got.data());
      for (int l = 0; l < W; ++l) {
        reference_derivatives(set, offsets[i + l], want.data());
        for (std::size_t idx = 0; idx < n; ++idx) lane[idx] = got[idx * W + l];
        ASSERT_EQ(std::memcmp(lane.data(), want.data(), n * sizeof(double)),
                  0)
            << "Q=" << q << " offset " << i + l << " lane " << l;
      }
    }
  }
}

TEST_P(LaplaceLanes, EveryLaneBitIdenticalToReference) {
  if (GetParam() == 4)
    expect_lanes_match_reference<4>();
  else
    expect_lanes_match_reference<2>();
}

template <int W>
void expect_zero_lane_throws() {
  MultiIndexSet set(6);
  LaplaceDerivatives ld(set);
  std::vector<double> out(W * set.size());
  for (int zero = 0; zero < W; ++zero) {
    Vec3 r[W];
    for (int l = 0; l < W; ++l) r[l] = l == zero ? Vec3{} : Vec3{1, 2, l + 1.0};
    EXPECT_THROW(ld.evaluate_lanes<W>(r, out.data()), std::domain_error)
        << "zero offset in lane " << zero;
  }
}

TEST_P(LaplaceLanes, ZeroOffsetInAnyLaneThrows) {
  if (GetParam() == 4)
    expect_zero_lane_throws<4>();
  else
    expect_zero_lane_throws<2>();
}

}  // namespace
}  // namespace afmm
