#include "linalg/decomposition.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace qcluster::linalg {
namespace {

Matrix RandomSpd(int n, Rng& rng) {
  // A A^T + n I is comfortably positive definite.
  Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) a(r, c) = rng.Gaussian();
  }
  Matrix spd = a.Multiply(a.Transposed());
  spd.AddToDiagonal(static_cast<double>(n));
  return spd;
}

TEST(CholeskyTest, FactorizesKnownMatrix) {
  const Matrix a{{4, 2}, {2, 3}};
  Result<CholeskyFactor> f = Cholesky(a);
  ASSERT_TRUE(f.ok());
  const Matrix& l = f.value().l;
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
  // Reconstruction: L L^T == A.
  EXPECT_TRUE(AllClose(l.Multiply(l.Transposed()), a, 1e-12));
}

TEST(CholeskyTest, RejectsNonPositiveDefinite) {
  EXPECT_FALSE(Cholesky(Matrix{{1, 2}, {2, 1}}).ok());   // Indefinite.
  EXPECT_FALSE(Cholesky(Matrix{{0, 0}, {0, 0}}).ok());   // Singular.
}

TEST(CholeskyTest, RejectsRankDeficientGramMatrix) {
  // Scatter of fewer points than dimensions: exactly rank n-1, but rounding
  // leaves tiny positive trailing pivots, so a pivot test against zero
  // "succeeds" and produces an explosive indefinite inverse downstream.
  // The relative pivot threshold must reject it.
  Rng rng(31);
  const int n = 8;
  Matrix gram(n, n, 0.0);
  for (int k = 0; k < n - 1; ++k) {
    Vector v(static_cast<std::size_t>(n));
    for (double& x : v) x = rng.Gaussian();
    gram = gram.Add(OuterProduct(v, v));
  }
  EXPECT_FALSE(Cholesky(gram).ok());
  EXPECT_FALSE(InverseSpd(gram).ok());
}

TEST(CholeskyTest, SolveRoundTrip) {
  Rng rng(21);
  for (int n : {1, 2, 5, 10}) {
    const Matrix a = RandomSpd(n, rng);
    const Vector x_true = rng.GaussianVector(n);
    const Vector b = a.MatVec(x_true);
    Result<CholeskyFactor> f = Cholesky(a);
    ASSERT_TRUE(f.ok());
    EXPECT_TRUE(AllClose(f.value().Solve(b), x_true, 1e-8));
  }
}

TEST(LuTest, DeterminantKnownValues) {
  EXPECT_NEAR(Determinant(Matrix{{1, 2}, {3, 4}}), -2.0, 1e-12);
  EXPECT_NEAR(Determinant(Matrix::Identity(4)), 1.0, 1e-12);
  EXPECT_NEAR(Determinant(Matrix{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}), 24.0,
              1e-12);
}

TEST(LuTest, SingularMatrixReported) {
  EXPECT_FALSE(Lu(Matrix{{1, 2}, {2, 4}}).ok());
  EXPECT_DOUBLE_EQ(Determinant(Matrix{{1, 2}, {2, 4}}), 0.0);
}

}  // namespace
}  // namespace qcluster::linalg
