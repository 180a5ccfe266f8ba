#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/vec3.hpp"

namespace afmm {
namespace {

// ---------------------------------------------------------------- Vec3 ----

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, -5, 6};
  EXPECT_EQ(a + b, (Vec3{5, -3, 9}));
  EXPECT_EQ(a - b, (Vec3{-3, 7, -3}));
  EXPECT_EQ(2.0 * a, (Vec3{2, 4, 6}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(a / 2.0, (Vec3{0.5, 1, 1.5}));
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
}

TEST(Vec3, DotCrossNorm) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 4 - 10 + 18);
  EXPECT_EQ(cross(Vec3{1, 0, 0}, Vec3{0, 1, 0}), (Vec3{0, 0, 1}));
  EXPECT_DOUBLE_EQ(norm2(a), 14.0);
  EXPECT_DOUBLE_EQ(norm(Vec3{3, 4, 0}), 5.0);
}

TEST(Vec3, CrossIsOrthogonal) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Vec3 a{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const Vec3 b{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const Vec3 c = cross(a, b);
    EXPECT_NEAR(dot(a, c), 0.0, 1e-12);
    EXPECT_NEAR(dot(b, c), 0.0, 1e-12);
  }
}

TEST(Vec3, IndexAccess) {
  Vec3 a{1, 2, 3};
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 2);
  EXPECT_EQ(a[2], 3);
  a[1] = 9;
  EXPECT_EQ(a.y, 9);
}

TEST(Vec3, StreamOutput) {
  std::ostringstream os;
  os << Vec3{1, 2, 3};
  EXPECT_EQ(os.str(), "(1, 2, 3)");
}

// ----------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformMomentsReasonable) {
  Rng rng(7);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.uniform());
  EXPECT_NEAR(st.mean(), 0.5, 0.01);
  EXPECT_NEAR(st.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMomentsReasonable) {
  Rng rng(11);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.03);
  EXPECT_NEAR(st.stddev(), 1.0, 0.03);
}

TEST(Rng, BelowIsBounded) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

// --------------------------------------------------------------- Stats ----

TEST(Stats, RunningStatsBasics) {
  RunningStats st;
  for (double v : {1.0, 2.0, 3.0, 4.0}) st.add(v);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
  EXPECT_DOUBLE_EQ(st.variance(), 1.25);
}

TEST(Stats, EmptyStats) {
  RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Stats, RelL2Error) {
  EXPECT_DOUBLE_EQ(rel_l2_error({1, 2}, {1, 2}), 0.0);
  EXPECT_NEAR(rel_l2_error({1.1, 2.0}, {1.0, 2.0}), 0.1 / std::sqrt(5.0),
              1e-12);
  EXPECT_THROW(rel_l2_error({1}, {1, 2}), std::invalid_argument);
}

TEST(Stats, MaxRelError) {
  EXPECT_DOUBLE_EQ(max_rel_error({2, 4}, {1, 4}), 1.0);
  EXPECT_DOUBLE_EQ(max_rel_error({1, 2}, {1, 2}), 0.0);
}

// --------------------------------------------------------------- Table ----

TEST(Table, RowShapeEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_NO_THROW(t.add_row({"1", "2"}));
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.5), "1.5");
  EXPECT_EQ(Table::integer(42), "42");
}

TEST(Table, CsvMirrorWritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/afmm_table_test.csv";
  {
    Table t({"a", "b"});
    t.mirror_csv(path);
    t.add_row({"1", "x"});
    t.add_row({"2", "y"});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,x");
  std::getline(in, line);
  EXPECT_EQ(line, "2,y");
}

TEST(Table, CsvMirrorToUnwritablePathIsIgnored) {
  Table t({"a"});
  t.mirror_csv("/nonexistent_dir_zzz/file.csv");  // must not throw
  EXPECT_NO_THROW(t.add_row({"1"}));
}

}  // namespace
}  // namespace afmm
