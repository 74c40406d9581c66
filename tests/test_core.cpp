// Unit tests for the core module: vectors, poses, RNG, statistics, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/vec.hpp"

namespace cimnav::core {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Vec3, ArithmeticBasics) {
  const Vec3 a{1, 2, 3}, b{4, -5, 6};
  EXPECT_EQ(a + b, Vec3(5, -3, 9));
  EXPECT_EQ(a - b, Vec3(-3, 7, -3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
  EXPECT_DOUBLE_EQ(a.dot(b), 1 * 4 - 2 * 5 + 3 * 6);
}

TEST(Vec3, CrossProductIsOrthogonal) {
  const Vec3 a{1, 2, 3}, b{-2, 0.5, 4};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});  // zero vector stays zero
}

TEST(Vec3, IndexAccessors) {
  Vec3 v{7, 8, 9};
  EXPECT_DOUBLE_EQ(v[0], 7);
  EXPECT_DOUBLE_EQ(v[1], 8);
  EXPECT_DOUBLE_EQ(v[2], 9);
  v[1] = -1;
  EXPECT_DOUBLE_EQ(v.y, -1);
}

TEST(Mat3, IdentityActsTrivially) {
  const Vec3 v{1.5, -2.5, 3.5};
  EXPECT_EQ(Mat3::identity() * v, v);
}

TEST(Mat3, RotationZQuarterTurn) {
  const Vec3 x{1, 0, 0};
  const Vec3 r = Mat3::rotation_z(kPi / 2) * x;
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
  EXPECT_NEAR(r.z, 0.0, 1e-12);
}

TEST(Mat3, RotationComposesAndInverts) {
  const Mat3 a = Mat3::rotation_z(0.3), b = Mat3::rotation_z(0.5);
  const Mat3 ab = a * b;
  const Vec3 v{1, 2, 3};
  const Vec3 direct = Mat3::rotation_z(0.8) * v;
  const Vec3 composed = ab * v;
  EXPECT_NEAR((direct - composed).norm(), 0.0, 1e-12);
  // R(-a) undoes R(a).
  const Vec3 back = Mat3::rotation_z(-0.3) * (a * v);
  EXPECT_NEAR((back - v).norm(), 0.0, 1e-12);
}

TEST(WrapAngle, WrapsIntoHalfOpenInterval) {
  EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle(2 * kPi + 0.1), 0.1, 1e-9);
  EXPECT_NEAR(wrap_angle(-2 * kPi - 0.1), -0.1, 1e-9);
  EXPECT_NEAR(wrap_angle(kPi + 0.2), -kPi + 0.2, 1e-9);
  EXPECT_LE(wrap_angle(kPi), kPi);
  EXPECT_GT(wrap_angle(3 * kPi), -kPi);
}

TEST(Pose, TransformRoundTrip) {
  const Pose p{{1, 2, 0.5}, 0.7};
  const Vec3 body{0.3, -0.4, 0.1};
  const Vec3 world = p.transform(body);
  const Vec3 back = p.inverse_transform(world);
  EXPECT_NEAR((back - body).norm(), 0.0, 1e-12);
}

TEST(Pose, ComposeRelativeRoundTrip) {
  const Pose a{{1, 2, 3}, 0.4};
  const Pose delta{{0.1, -0.2, 0.05}, -0.15};
  const Pose b = a.compose(delta);
  const Pose rel = a.relative_to(b);
  EXPECT_NEAR((rel.position - delta.position).norm(), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle(rel.yaw - delta.yaw), 0.0, 1e-12);
}

TEST(Pose, ErrorsAreSymmetricAndWrapped) {
  const Pose a{{0, 0, 0}, 3.0};
  const Pose b{{3, 4, 0}, -3.0};
  EXPECT_DOUBLE_EQ(a.position_error(b), 5.0);
  EXPECT_DOUBLE_EQ(b.position_error(a), 5.0);
  // Yaw 3.0 vs -3.0 differ by ~0.28 through the wrap, not 6.0.
  EXPECT_NEAR(a.yaw_error(b), 2 * kPi - 6.0, 1e-9);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    s.add(u);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 30000; ++i) s.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(17);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i)
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  for (int c : counts) EXPECT_NEAR(c, 10000, 400);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int ones = 0;
  for (int i = 0; i < 20000; ++i) ones += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(ones / 20000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, CategoricalMatchesWeights) {
  Rng rng(29);
  const std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.categorical(w)];
  EXPECT_NEAR(counts[0] / 50000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 50000.0, 0.3, 0.01);
  EXPECT_NEAR(counts[2] / 50000.0, 0.6, 0.01);
}

TEST(Rng, CategoricalSkipsZeroWeights) {
  Rng rng(31);
  const std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(w), 1u);
}

TEST(Rng, CategoricalRejectsInvalid) {
  Rng rng(37);
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(41);
  const auto p = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (auto i : p) {
    ASSERT_LT(i, 100u);
    ASSERT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(43);
  Rng a = parent.split();
  Rng b = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  EXPECT_NEAR(s.variance(), var / 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Correlation, PerfectLinear) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  std::vector<double> neg;
  for (double v : y) neg.push_back(-v);
  EXPECT_NEAR(pearson_correlation(x, neg), -1.0, 1e-12);
}

TEST(Correlation, DegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(pearson_correlation({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(pearson_correlation({1}, {2}), 0.0);
}

TEST(Correlation, SpearmanHandlesMonotoneNonlinear) {
  std::vector<double> x, y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(std::exp(0.2 * i));  // monotone but nonlinear
  }
  EXPECT_NEAR(spearman_correlation(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson_correlation(x, y), 0.95);
}

TEST(Correlation, RanksAverageTies) {
  const auto r = ranks_with_ties({10.0, 20.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Quantile, InterpolatesAndBounds) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(LinearFit, RecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 0.5 * i);
  }
  const auto f = linear_fit(x, y);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 0.5, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Table, AlignedPrint) {
  Table t({"name", "value"});
  t.set_precision(2);
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b"), 22.125});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.12"), std::string::npos);
}

TEST(Table, RowLengthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), std::invalid_argument);
}

}  // namespace
}  // namespace cimnav::core
