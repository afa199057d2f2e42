#include "core/disjunctive_distance.h"

#include <bit>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "dataset/synthetic_gaussian.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"
#include "linalg/eigen_sym.h"

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

constexpr int kFullDim = 6;

/// Three clusters of 17 members in 6-d: under the inverse scheme every
/// term is a dense matrix.
std::vector<Cluster> FullClusters(Rng& rng) {
  std::vector<Cluster> clusters;
  for (int c = 0; c < 3; ++c) {
    Cluster cluster(kFullDim);
    const Vector center = rng.GaussianVector(kFullDim);
    for (int i = 0; i < 2 * kFullDim + 5; ++i) {
      cluster.Add(linalg::Add(center, rng.GaussianVector(kFullDim)), 1.0);
    }
    clusters.push_back(std::move(cluster));
  }
  return clusters;
}

/// The rectangle spanned by two random points.
index::Rect RandomRect(Rng& rng) {
  index::Rect rect = index::Rect::Empty(kFullDim);
  rect.Expand(rng.GaussianVector(kFullDim).data());
  rect.Expand(rng.GaussianVector(kFullDim).data());
  return rect;
}

/// Each full term of `d` bounds `rect` with exactly the bits of the eager
/// formula λ_min(Aᵢ) · d²_euclid(qᵢ, rect).
void ExpectEagerBounds(const DisjunctiveDistance& d, const index::Rect& rect) {
  for (const index::QuadraticComponent& term : d.decomposition()->components) {
    ASSERT_TRUE(term.diagonal.empty());
    const double want = linalg::MinEigenvalueLowerBound(term.full) *
                        rect.SquaredEuclideanDistance(term.query);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(term.MinDistance(rect)),
              std::bit_cast<std::uint64_t>(want));
  }
}

TEST(DisjunctiveDistanceTest, FullTermBoundsOnlyWhenATreeBoundsARectangle) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  SetMetricsEnabled(true);
  const auto bounds = [&registry] {
    return registry.CounterValue("index.min_eigenvalue_bounds");
  };
  Rng rng(133);
  const DisjunctiveDistance d(FullClusters(rng), CovarianceScheme::kInverse,
                              1e-4);
  const long long terms = d.cluster_count();
  const DisjunctiveDistance copied_before_use = d;
  std::vector<Vector> pts;
  for (int i = 0; i < 400; ++i) pts.push_back(rng.GaussianVector(kFullDim));
  const linalg::FlatBlock block = linalg::FlatBlock::FromPoints(pts);

  const index::LinearScanIndex scan(block.view());
  const std::vector<index::Neighbor> scanned = scan.Search(d, 10);
  EXPECT_EQ(bounds(), 0) << "a scan never bounds a rectangle";

  const index::BrTree tree(&block);
  const std::vector<index::Neighbor> first = tree.Search(d, 10);
  EXPECT_EQ(bounds(), terms) << "one bound per full term";
  const std::vector<index::Neighbor> second = tree.Search(d, 10);
  EXPECT_EQ(bounds(), terms) << "a known bound is not computed again";
  ASSERT_EQ(first.size(), scanned.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, scanned[i].id);
    EXPECT_EQ(second[i].id, scanned[i].id);
  }

  const DisjunctiveDistance copied_after_use = d;
  const index::Rect rect = RandomRect(rng);
  ExpectEagerBounds(copied_after_use, rect);
  EXPECT_EQ(bounds(), terms) << "a copy carries the known bounds";
  ExpectEagerBounds(copied_before_use, rect);
  EXPECT_EQ(bounds(), 2 * terms) << "an earlier copy computes its own";
  SetMetricsEnabled(false);
  registry.Reset();
}

TEST(DisjunctiveDistanceTest, ConcurrentFirstBoundsAgree) {
  // Four threads race to the first bounds of one shared metric; each must
  // read exactly the value a single thread computes.
  Rng rng(134);
  const DisjunctiveDistance reference(FullClusters(rng),
                                      CovarianceScheme::kInverse, 1e-4);
  const DisjunctiveDistance shared = reference;
  std::vector<index::Rect> rects;
  std::vector<double> want;
  for (int i = 0; i < 8; ++i) {
    rects.push_back(RandomRect(rng));
    want.push_back(reference.MinDistance(rects.back()));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &rects, out = &got[t]] {
      for (const index::Rect& rect : rects) {
        out->push_back(shared.MinDistance(rect));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t][i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "thread " << t << " rect " << i;
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
