#include <gtest/gtest.h>

#include <cmath>

#include "common/linalg.hpp"

namespace {

using namespace ptc;

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_THROW(m(2, 0), std::invalid_argument);
  EXPECT_THROW(Matrix({{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityTransposeNorm) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_NEAR(i3.norm(), std::sqrt(3.0), 1e-12);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), 0.0);
  const Matrix scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 3.0);
}

TEST(Matrix, MatmulAgainstHandComputed) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  EXPECT_THROW(matmul(a, Matrix(3, 2)), std::invalid_argument);
}

TEST(Matrix, MatvecMatchesMatmul) {
  Matrix a{{1.0, -2.0, 0.5}, {0.0, 3.0, 1.0}};
  const std::vector<double> x{2.0, 1.0, 4.0};
  const auto y = matvec(a, x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

}  // namespace
