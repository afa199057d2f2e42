#include "stats/covariance_scheme.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/decomposition.h"

namespace qcluster::stats {
namespace {

using linalg::AllClose;
using linalg::Matrix;

TEST(CovarianceSchemeTest, Names) {
  EXPECT_STREQ(CovarianceSchemeName(CovarianceScheme::kInverse), "inverse");
  EXPECT_STREQ(CovarianceSchemeName(CovarianceScheme::kDiagonal), "diagonal");
}

TEST(CovarianceSchemeTest, DiagonalSchemeIgnoresOffDiagonal) {
  const Matrix s{{4.0, 3.9}, {3.9, 16.0}};
  const Matrix inv = InvertCovariance(s, CovarianceScheme::kDiagonal);
  EXPECT_NEAR(inv(0, 0), 0.25, 1e-12);
  EXPECT_NEAR(inv(1, 1), 1.0 / 16.0, 1e-12);
  EXPECT_DOUBLE_EQ(inv(0, 1), 0.0);
}

TEST(CovarianceSchemeTest, DiagonalSchemeFloorsTinyVariances) {
  const Matrix s{{0.0, 0.0}, {0.0, 1.0}};
  const Matrix inv = InvertCovariance(s, CovarianceScheme::kDiagonal);
  EXPECT_DOUBLE_EQ(inv(0, 0), 1e12);  // 1 / the 1e-12 floor.
  EXPECT_DOUBLE_EQ(inv(1, 1), 1.0);
}

TEST(CovarianceSchemeTest, InverseSchemeExactForSpd) {
  const Matrix s{{4.0, 1.0}, {1.0, 3.0}};
  const Matrix inv = InvertCovariance(s, CovarianceScheme::kInverse);
  EXPECT_TRUE(AllClose(s.Multiply(inv), Matrix::Identity(2), 1e-10));
}

TEST(CovarianceSchemeTest, InverseSchemeRegularizesSingular) {
  // Rank-1 covariance: exact inversion impossible; the ridge fallback must
  // still produce a finite SPD-ish result.
  const Matrix s{{1.0, 1.0}, {1.0, 1.0}};
  const Matrix inv = InvertCovariance(s, CovarianceScheme::kInverse);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_TRUE(std::isfinite(inv(r, c)));
    }
  }
  // Quadratic form along the null direction (1, -1) must be positive.
  EXPECT_GT(linalg::QuadraticForm({1.0, -1.0}, inv, {1.0, -1.0}), 0.0);
}

TEST(CovarianceSchemeTest, RankDeficientScatterTakesRidgePathNotGarbage) {
  // Regression: a 16-dim scatter built from 15 points is rank-deficient.
  // Cholesky used to accept its rounding-residue pivots, so the "inverse"
  // came back indefinite (negative squared distances downstream, flagged
  // by the Eq. 7/10 audit). The ridge fallback must engage instead and
  // return a matrix whose quadratic form is positive in every direction.
  qcluster::Rng rng(7);
  const int dim = 16;
  Matrix scatter(dim, dim, 0.0);
  std::vector<linalg::Vector> pts;
  for (int k = 0; k < dim - 1; ++k) {
    pts.push_back(rng.GaussianVector(dim));
    scatter = scatter.Add(linalg::OuterProduct(pts.back(), pts.back()));
  }
  const Matrix inv = InvertCovariance(scatter, CovarianceScheme::kInverse);
  for (int trial = 0; trial < 50; ++trial) {
    const linalg::Vector x = rng.GaussianVector(dim);
    EXPECT_GT(linalg::QuadraticForm(x, inv, x), 0.0) << "trial " << trial;
  }
}

TEST(CovarianceSchemeTest, ZeroMatrixFallsBackToDiagonal) {
  const Matrix s(3, 3, 0.0);
  const Matrix inv = InvertCovariance(s, CovarianceScheme::kInverse);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(std::isfinite(inv(i, i)));
}

}  // namespace
}  // namespace qcluster::stats
