// Tests for features beyond the paper's core algorithms: the warm-start
// IO model of the BR-tree (Fig. 7's multipoint refinement saving, carried
// by the shared index::WarmStart session cache) and covariance shrinkage in
// the disjunctive metric.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "core/disjunctive_distance.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"

namespace qcluster {
namespace {

using core::Cluster;
using linalg::Vector;

linalg::FlatBlock RandomPoints(int n, int dim, Rng& rng) {
  std::vector<Vector> pts;
  for (int i = 0; i < n; ++i) pts.push_back(rng.GaussianVector(dim));
  return linalg::FlatBlock::FromPoints(pts);
}

TEST(QueryCacheTest, WarmSearchSkipsCachedLeafReads) {
  Rng rng(241);
  const linalg::FlatBlock pts = RandomPoints(4000, 3, rng);
  const index::BrTree tree(&pts);

  index::WarmStart warm;
  const index::EuclideanDistance q1(pts[0]);
  index::SearchStats cold;
  // Cold run executed to populate the cache and cost counters only.
  DiscardResult(tree.SearchWarm(q1, 50, warm, &cold));
  EXPECT_GT(cold.leaves_visited, 0);
  EXPECT_GT(warm.pages().size(), 0u);

  // The *same* query warm-started must hit only cached leaves: zero IO.
  index::SearchStats warm_stats;
  const auto warm_result = tree.SearchWarm(q1, 50, warm, &warm_stats);
  EXPECT_EQ(warm_stats.leaves_visited, 0);
  EXPECT_EQ(warm_result, tree.Search(q1, 50));
}

TEST(QueryCacheTest, RefinedQueryStaysExactWithFewReads) {
  Rng rng(242);
  const linalg::FlatBlock pts = RandomPoints(4000, 3, rng);
  const index::BrTree tree(&pts);

  index::WarmStart warm;
  const index::EuclideanDistance q1(pts[0]);
  index::SearchStats cold;
  // Cold run executed to populate the cache and cost counters only.
  DiscardResult(tree.SearchWarm(q1, 50, warm, &cold));

  Vector moved = pts[0];
  moved[0] += 0.1;  // A slightly refined query.
  const index::EuclideanDistance q2(moved);
  index::SearchStats warm_stats;
  const auto warm_result = tree.SearchWarm(q2, 50, warm, &warm_stats);
  EXPECT_EQ(warm_result, tree.Search(q2, 50));  // Exactness preserved.
  EXPECT_LE(warm_stats.leaves_visited, cold.leaves_visited);
}

TEST(QueryCacheTest, CacheAccumulatesAcrossIterations) {
  Rng rng(243);
  const linalg::FlatBlock pts = RandomPoints(2000, 2, rng);
  const index::BrTree tree(&pts);
  index::WarmStart warm;
  std::size_t previous = 0;
  for (int it = 0; it < 4; ++it) {
    Vector q = pts[0];
    q[0] += 0.05 * it;
    // Each round is run to accumulate cached leaves; only the cache growth
    // is under test.
    DiscardResult(tree.SearchWarm(index::EuclideanDistance(q), 30, warm));
    EXPECT_GE(warm.pages().size(), previous);
    previous = warm.pages().size();
  }
}

TEST(ShrinkageTest, ZeroLambdaMatchesPlainMetric) {
  Rng rng(244);
  std::vector<Cluster> clusters;
  Cluster a(2), b(2);
  for (int i = 0; i < 20; ++i) {
    a.Add(rng.GaussianVector(2), 1.0);
    b.Add(linalg::Add(rng.GaussianVector(2), {5, 5}), 1.0);
  }
  clusters.push_back(std::move(a));
  clusters.push_back(std::move(b));
  const core::DisjunctiveDistance plain(
      clusters, stats::CovarianceScheme::kDiagonal, 1e-4);
  const core::DisjunctiveDistance zero(
      clusters, stats::CovarianceScheme::kDiagonal, 1e-4, 0.0);
  for (int t = 0; t < 20; ++t) {
    const Vector x = rng.GaussianVector(2);
    EXPECT_DOUBLE_EQ(plain.Distance(x), zero.Distance(x));
  }
}

TEST(ShrinkageTest, FullShrinkagePullsMetricsTowardPooled) {
  // One tight and one wide cluster: with strong shrinkage their metrics
  // approach the shared pooled shape, so the distance from each centroid
  // to an offset probe becomes comparable.
  Rng rng(245);
  std::vector<Cluster> clusters;
  Cluster tight(1), wide(1);
  for (int i = 0; i < 30; ++i) {
    tight.Add({0.1 * rng.Gaussian()}, 1.0);
    wide.Add({100.0 + 3.0 * rng.Gaussian()}, 1.0);
  }
  clusters.push_back(std::move(tight));
  clusters.push_back(std::move(wide));

  const core::DisjunctiveDistance sharp(
      clusters, stats::CovarianceScheme::kDiagonal, 1e-8, 0.0);
  const core::DisjunctiveDistance shrunk(
      clusters, stats::CovarianceScheme::kDiagonal, 1e-8, 0.9);
  // Probe near the tight cluster: under shrinkage the tight cluster's
  // variance grows, so the same offset counts as less distance.
  EXPECT_GT(sharp.Distance({1.0}), shrunk.Distance({1.0}));
}

}  // namespace
}  // namespace qcluster
