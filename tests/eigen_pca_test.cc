#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/eigen_sym.h"
#include "linalg/pca.h"

namespace qcluster::linalg {
namespace {

TEST(EigenSymmetricTest, DiagonalMatrix) {
  Result<SymmetricEigen> e = EigenSymmetric(Matrix{{3, 0}, {0, 7}});
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e.value().values[0], 7.0, 1e-10);
  EXPECT_NEAR(e.value().values[1], 3.0, 1e-10);
}

TEST(EigenSymmetricTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Result<SymmetricEigen> e = EigenSymmetric(Matrix{{2, 1}, {1, 2}});
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e.value().values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.value().values[1], 1.0, 1e-10);
}

TEST(EigenSymmetricTest, ReconstructsMatrix) {
  Rng rng(31);
  for (int n : {2, 4, 8, 16}) {
    Matrix a(n, n);
    for (int r = 0; r < n; ++r) {
      for (int c = r; c < n; ++c) {
        a(r, c) = rng.Gaussian();
        a(c, r) = a(r, c);
      }
    }
    Result<SymmetricEigen> e = EigenSymmetric(a);
    ASSERT_TRUE(e.ok());
    const Matrix& v = e.value().vectors;
    const Matrix reconstructed =
        v.Multiply(Matrix::Diagonal(e.value().values)).Multiply(v.Transposed());
    EXPECT_TRUE(AllClose(reconstructed, a, 1e-8));
    // Eigenvectors are orthonormal.
    EXPECT_TRUE(
        AllClose(v.Transposed().Multiply(v), Matrix::Identity(n), 1e-9));
    // Values are sorted descending.
    for (int i = 1; i < n; ++i) {
      EXPECT_GE(e.value().values[static_cast<std::size_t>(i - 1)],
                e.value().values[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(EigenSymmetricTest, RejectsAsymmetric) {
  EXPECT_DEATH((void)EigenSymmetric(Matrix{{1, 2}, {0, 1}}), "symmetry");
}

std::vector<Vector> MakeAnisotropicSample(Rng& rng, int n) {
  // Variance 25 along x, 1 along y, 0.01 along z.
  std::vector<Vector> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back({5.0 * rng.Gaussian() + 10.0, rng.Gaussian() - 2.0,
                    0.1 * rng.Gaussian()});
  }
  return rows;
}

TEST(PcaTest, EigenvaluesOrderedAndMatchVariances) {
  Rng rng(32);
  Result<Pca> pca = Pca::Fit(MakeAnisotropicSample(rng, 20000));
  ASSERT_TRUE(pca.ok());
  const Vector& ev = pca.value().eigenvalues();
  EXPECT_NEAR(ev[0], 25.0, 1.5);
  EXPECT_NEAR(ev[1], 1.0, 0.1);
  EXPECT_NEAR(ev[2], 0.01, 0.005);
  // The first component covers 25 / 26.01 ≈ 96% of the variance.
  EXPECT_GT(pca.value().VarianceRatio(1), 0.9);
  EXPECT_NEAR(pca.value().VarianceRatio(3), 1.0, 1e-12);
}

TEST(PcaTest, MeanMatchesSample) {
  Rng rng(33);
  Result<Pca> pca = Pca::Fit(MakeAnisotropicSample(rng, 20000));
  ASSERT_TRUE(pca.ok());
  EXPECT_NEAR(pca.value().mean()[0], 10.0, 0.2);
  EXPECT_NEAR(pca.value().mean()[1], -2.0, 0.05);
}

TEST(PcaTest, TransformReducesAndInverseRecovers) {
  Rng rng(35);
  const std::vector<Vector> rows = MakeAnisotropicSample(rng, 2000);
  Result<Pca> pca = Pca::Fit(rows);
  ASSERT_TRUE(pca.ok());
  const Vector z = pca.value().Transform(rows[0], 3);
  EXPECT_EQ(z.size(), 3u);
  // The full-rank transform rotates the centered point, so it is lossless
  // and keeps the point's length.
  const Vector centered = Sub(rows[0], pca.value().mean());
  EXPECT_NEAR(Norm(z), Norm(centered), 1e-9);
  // The reduced transform preserves the dominant coordinate well: the first
  // component is nearly the x axis.
  const Vector z1 = pca.value().Transform(rows[0], 1);
  EXPECT_NEAR(std::abs(z1[0]), std::abs(centered[0]), 4.0);
}

TEST(PcaTest, TransformAllMatchesSingle) {
  Rng rng(36);
  const std::vector<Vector> rows = MakeAnisotropicSample(rng, 50);
  Result<Pca> pca = Pca::Fit(rows);
  ASSERT_TRUE(pca.ok());
  const std::vector<Vector> all = pca.value().TransformAll(rows, 2);
  ASSERT_EQ(all.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(AllClose(all[i], pca.value().Transform(rows[i], 2), 1e-12));
  }
}

TEST(PcaTest, ProjectionsAreDecorrelated) {
  Rng rng(37);
  const std::vector<Vector> rows = MakeAnisotropicSample(rng, 5000);
  Result<Pca> pca = Pca::Fit(rows);
  ASSERT_TRUE(pca.ok());
  const std::vector<Vector> z = pca.value().TransformAll(rows, 3);
  // Sample covariance of z must be diagonal (the eigenvalues).
  double cross01 = 0.0;
  for (const Vector& v : z) cross01 += v[0] * v[1];
  cross01 /= static_cast<double>(z.size());
  EXPECT_NEAR(cross01, 0.0, 0.1);
}

}  // namespace
}  // namespace qcluster::linalg
