#include "core/disjunctive_distance.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/synthetic_gaussian.h"
#include "index/linear_scan.h"

namespace qcluster::core {
namespace {

using linalg::Vector;
using stats::CovarianceScheme;

std::vector<Cluster> TwoUnitClusters() {
  // Two singleton clusters with unit (floored) covariance at (-1,-1,-1)
  // and (1,1,1) — the Example 3 setup with m_i = 1.
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::FromPoint({-1, -1, -1}, 1.0));
  clusters.push_back(Cluster::FromPoint({1, 1, 1}, 1.0));
  return clusters;
}

TEST(DisjunctiveDistanceTest, ZeroAtEitherCentroid) {
  const DisjunctiveDistance d(TwoUnitClusters(), CovarianceScheme::kDiagonal,
                              1.0);
  EXPECT_DOUBLE_EQ(d.Distance({-1, -1, -1}), 0.0);
  EXPECT_DOUBLE_EQ(d.Distance({1, 1, 1}), 0.0);
}

TEST(DisjunctiveDistanceTest, MatchesEq5ByHand) {
  const DisjunctiveDistance d(TwoUnitClusters(), CovarianceScheme::kDiagonal,
                              1.0);
  // At the origin: d1² = d2² = 3 (unit variance). Eq. 5:
  // (1+1) / (1/3 + 1/3) = 3.
  EXPECT_NEAR(d.Distance({0, 0, 0}), 3.0, 1e-12);
}

TEST(DisjunctiveDistanceTest, FuzzyOrFavorsProximityToAnyCluster) {
  const DisjunctiveDistance d(TwoUnitClusters(), CovarianceScheme::kDiagonal,
                              1.0);
  // A point near one centroid beats the midpoint, even though the midpoint
  // minimizes the *sum* of distances.
  EXPECT_LT(d.Distance({0.9, 0.9, 0.9}), d.Distance({0, 0, 0}));
}

TEST(DisjunctiveDistanceTest, Example3RetrievesBothBalls) {
  // Example 3: 10,000 uniform points in [-2,2]^3; points within 1.0 of
  // either center are the ground truth (the paper retrieves 820).
  Rng rng(131);
  const std::vector<Vector> points =
      dataset::GenerateUniformCube(10000, 3, -2.0, 2.0, rng);
  const Vector c1{-1, -1, -1};
  const Vector c2{1, 1, 1};
  int ground_truth = 0;
  for (const Vector& p : points) {
    if (linalg::Distance(p, c1) <= 1.0 || linalg::Distance(p, c2) <= 1.0) {
      ++ground_truth;
    }
  }
  // Uniform density: expect about 2 * (4/3)π / 64 * 10000 ≈ 1300 points
  // (the paper's 820 reflects its particular draw; the shape is what
  // matters). Sanity check our draw is in a plausible band.
  EXPECT_GT(ground_truth, 800);
  EXPECT_LT(ground_truth, 1800);

  const DisjunctiveDistance d(TwoUnitClusters(), CovarianceScheme::kDiagonal,
                              1.0);
  const auto block = linalg::FlatBlock::FromPoints(points);
  const index::LinearScanIndex idx(block.view());
  const auto result = idx.Search(d, ground_truth);

  // The retrieved set must consist of points close to either center: check
  // the top results all lie in one of the two balls (tolerating boundary
  // effects in the tail).
  int inside = 0;
  for (const auto& n : result) {
    const Vector& p = points[static_cast<std::size_t>(n.id)];
    if (linalg::Distance(p, c1) <= 1.2 || linalg::Distance(p, c2) <= 1.2) {
      ++inside;
    }
  }
  EXPECT_GT(static_cast<double>(inside) / ground_truth, 0.9);
}

TEST(DisjunctiveDistanceTest, WeightsBiasTowardHeavyCluster) {
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::FromPoint({-1, 0}, 10.0));  // Heavy.
  clusters.push_back(Cluster::FromPoint({1, 0}, 1.0));    // Light.
  const DisjunctiveDistance d(clusters, CovarianceScheme::kDiagonal, 1.0);
  // Symmetric probes: the heavy cluster pulls harder.
  EXPECT_LT(d.Distance({-0.5, 0}), d.Distance({0.5, 0}));
}

TEST(DisjunctiveDistanceTest, SingleClusterReducesToMahalanobis) {
  std::vector<Cluster> clusters;
  Cluster c(2);
  c.Add({0.0, 0.0}, 1.0);
  c.Add({2.0, 0.0}, 1.0);
  clusters.push_back(std::move(c));
  const DisjunctiveDistance d(clusters, CovarianceScheme::kDiagonal, 1.0);
  const double direct = clusters[0].DistanceSquared(
      {3.0, 1.0}, CovarianceScheme::kDiagonal, 1.0);
  EXPECT_NEAR(d.Distance({3.0, 1.0}), direct, 1e-12);
}

TEST(DisjunctiveDistanceTest, MinDistanceIsValidLowerBound) {
  Rng rng(132);
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::FromPoint({-1, -1}, 1.0));
  clusters.push_back(Cluster::FromPoint({2, 2}, 2.0));
  const DisjunctiveDistance d(clusters, CovarianceScheme::kDiagonal, 0.5);
  for (int t = 0; t < 100; ++t) {
    index::Rect r = index::Rect::Empty(2);
    r.Expand(rng.GaussianVector(2).data());
    r.Expand(rng.GaussianVector(2).data());
    const double bound = d.MinDistance(r);
    for (int s = 0; s < 20; ++s) {
      const Vector p{rng.Uniform(r.lo[0], r.hi[0]),
                     rng.Uniform(r.lo[1], r.hi[1])};
      EXPECT_GE(d.Distance(p) + 1e-9, bound);
    }
  }
}

TEST(DisjunctiveDistanceTest, ClusterCount) {
  const DisjunctiveDistance d(TwoUnitClusters(), CovarianceScheme::kDiagonal,
                              1.0);
  EXPECT_EQ(d.cluster_count(), 2);
  EXPECT_EQ(d.dim(), 3);
}

}  // namespace
}  // namespace qcluster::core
