#include "stats/hotelling.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/synthetic_gaussian.h"
#include "stats/distributions.h"

namespace qcluster::stats {
namespace {

using linalg::Matrix;
using linalg::Vector;

WeightedStats GaussianSample(int n, int dim, const Vector& mean, Rng& rng) {
  std::vector<Vector> points;
  for (int i = 0; i < n; ++i) {
    Vector p = rng.GaussianVector(dim);
    linalg::Axpy(1.0, mean, p);
    points.push_back(std::move(p));
  }
  return WeightedStats::FromPoints(points);
}

TEST(HotellingTest, ZeroWhenMeansEqual) {
  const WeightedStats a = WeightedStats::FromPoints({{0.0, 0.0}, {2.0, 2.0}});
  const WeightedStats b = WeightedStats::FromPoints({{2.0, 2.0}, {0.0, 0.0}});
  EXPECT_NEAR(HotellingT2(a, b, CovarianceScheme::kInverse), 0.0, 1e-12);
  EXPECT_NEAR(HotellingT2(a, b, CovarianceScheme::kDiagonal), 0.0, 1e-12);
}

TEST(HotellingTest, GrowsWithMeanSeparation) {
  Rng rng(51);
  const WeightedStats a = GaussianSample(30, 3, {0, 0, 0}, rng);
  const WeightedStats b_near = GaussianSample(30, 3, {0.3, 0, 0}, rng);
  const WeightedStats b_far = GaussianSample(30, 3, {3.0, 0, 0}, rng);
  EXPECT_LT(HotellingT2(a, b_near, CovarianceScheme::kInverse),
            HotellingT2(a, b_far, CovarianceScheme::kInverse));
}

TEST(HotellingTest, CriticalDistanceMatchesEq16) {
  // c² = (m-2)p/(m-p-1) * F_{p,m-p-1}(α) with m = m_i + m_j.
  Result<double> c2 = HotellingCriticalDistance(60.0, 12, 0.05);
  ASSERT_TRUE(c2.ok());
  const double f = stats::FUpperQuantile(0.05, 12, 47);
  EXPECT_NEAR(c2.value(), 58.0 * 12.0 / 47.0 * f, 1e-9);
}

TEST(HotellingTest, CriticalDistanceRejectsDegenerateDof) {
  // m_total <= p + 1 cannot support the F distribution.
  EXPECT_FALSE(HotellingCriticalDistance(4.0, 3, 0.05).ok());
  EXPECT_FALSE(HotellingCriticalDistance(13.0, 12, 0.05).ok());
}

TEST(HotellingTest, DiagonalSchemeTracksInverseForSphericalData) {
  // Tables 2-3: with (near-)diagonal covariance both schemes agree closely.
  Rng rng(54);
  const WeightedStats a = GaussianSample(200, 4, {0, 0, 0, 0}, rng);
  const WeightedStats b = GaussianSample(200, 4, {1, 0, 0, 0}, rng);
  const double t2_inv = HotellingT2(a, b, CovarianceScheme::kInverse);
  const double t2_diag = HotellingT2(a, b, CovarianceScheme::kDiagonal);
  EXPECT_NEAR(t2_inv / t2_diag, 1.0, 0.25);
}

TEST(HotellingTest, InvarianceUnderLinearTransformWithInverseScheme) {
  // Theorem 1: T²(A x) == T²(x) when S^{-1} is the true inverse.
  Rng rng(55);
  std::vector<Vector> pa, pb;
  for (int i = 0; i < 25; ++i) {
    pa.push_back(rng.GaussianVector(3));
    pb.push_back(linalg::Add(rng.GaussianVector(3), {1.0, -0.5, 0.25}));
  }
  const double t2 =
      HotellingT2(WeightedStats::FromPoints(pa), WeightedStats::FromPoints(pb),
                  CovarianceScheme::kInverse);
  const Matrix transform = dataset::RandomNonsingularMatrix(3, 4.0, rng);
  std::vector<Vector> ta, tb;
  for (const Vector& p : pa) ta.push_back(transform.MatVec(p));
  for (const Vector& p : pb) tb.push_back(transform.MatVec(p));
  const double t2_transformed =
      HotellingT2(WeightedStats::FromPoints(ta), WeightedStats::FromPoints(tb),
                  CovarianceScheme::kInverse);
  EXPECT_NEAR(t2_transformed / t2, 1.0, 1e-6);
}

TEST(HotellingTest, WithExplicitInverseMatchesScheme) {
  Rng rng(56);
  const WeightedStats a = GaussianSample(20, 2, {0, 0}, rng);
  const WeightedStats b = GaussianSample(20, 2, {1, 1}, rng);
  const Matrix pooled = PooledCovariancePair(a, b);
  const Matrix inv = InvertCovariance(pooled, CovarianceScheme::kInverse);
  EXPECT_NEAR(HotellingT2WithInverse(a, b, inv),
              HotellingT2(a, b, CovarianceScheme::kInverse), 1e-9);
}

}  // namespace
}  // namespace qcluster::stats
