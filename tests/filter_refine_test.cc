// Exactness regression for the PCA filter-and-refine index: against
// LinearScanIndex (the correctness oracle) the filter must return identical
// top-k lists — same ids, same distances, same tie-breaks — for every
// decomposable metric, every reduced dimensionality, every thread count,
// and tie-heavy inputs; plus contractiveness property tests for the
// Projector, the opaque-metric fallback, and the projection cache.

#include "index/filter_refine.h"

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/disjunctive_distance.h"
#include "dataset/synthetic_gaussian.h"
#include "index/linear_scan.h"
#include "linalg/pca.h"
#include "stats/covariance_scheme.h"

namespace qcluster::index {
namespace {

using core::Cluster;
using core::DisjunctiveDistance;
using linalg::FlatBlock;
using linalg::Matrix;
using linalg::Projector;
using linalg::Vector;

constexpr int kDim = 16;

/// Clustered workload with a smattering of exact duplicates so distance
/// ties exercise the (distance, id) tie-break through the filter.
std::vector<Vector> TieHeavyPoints(int n, Rng& rng) {
  dataset::GaussianClustersOptions opt;
  opt.dim = kDim;
  opt.num_clusters = 4;
  opt.points_per_cluster = n / 4;
  opt.inter_cluster_distance = 3.0;
  std::vector<Vector> pts =
      dataset::GenerateGaussianClusters(opt, rng).points;
  // Duplicate every 7th point over the tail: identical distances, distinct
  // ids.
  const std::size_t original = pts.size();
  for (std::size_t i = 0; i < original; i += 7) pts.push_back(pts[i]);
  return pts;
}

/// A random symmetric PSD matrix B'B + εI.
Matrix RandomPsd(int dim, Rng& rng) {
  Matrix b(dim, dim);
  for (int r = 0; r < dim; ++r) {
    for (int c = 0; c < dim; ++c) b(r, c) = rng.Gaussian();
  }
  Matrix a = b.Transposed().Multiply(b).Scale(1.0 / dim);
  a.AddToDiagonal(1e-3);
  return a;
}

DisjunctiveDistance MakeDisjunctive(const std::vector<Vector>& pts,
                                    stats::CovarianceScheme scheme) {
  std::vector<Cluster> clusters;
  for (int c = 0; c < 3; ++c) {
    Cluster cluster(kDim);
    for (int i = 0; i < 15; ++i) {
      cluster.Add(pts[static_cast<std::size_t>(c * 40 + i)], 1.0 + 0.1 * i);
    }
    clusters.push_back(std::move(cluster));
  }
  return DisjunctiveDistance(clusters, scheme, 1e-4);
}

/// The exactness contract itself: identical Neighbor lists, compared with
/// operator== (exact distances, exact order).
void ExpectExact(const std::vector<Vector>& pts, const DistanceFunction& dist,
                 int pca_dims, ThreadPool* pool, int k = 25) {
  const LinearScanIndex oracle(&pts, pool);
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const FilterRefineIndex filter(block.view(), pca_dims, pool);
  SearchStats stats;
  const std::vector<Neighbor> got = filter.Search(dist, k, &stats);
  EXPECT_EQ(got, oracle.Search(dist, k));
  EXPECT_GT(stats.distance_evaluations, 0);
}

TEST(ProjectorTest, DiagonalContractive) {
  Rng rng(7);
  std::vector<Vector> pts;
  for (int i = 0; i < 200; ++i) pts.push_back(rng.GaussianVector(kDim));
  Vector diag(kDim);
  for (double& d : diag) d = rng.Uniform(0.0, 3.0);
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const Vector q = rng.GaussianVector(kDim);
  for (int k : {1, 4, kDim}) {
    const Projector p = Projector::FitDiagonal(diag, block.view(), k);
    ASSERT_EQ(p.output_dim(), k);
    const Vector zq = p.Project(q);
    for (const Vector& x : pts) {
      double exact = 0.0;
      for (int d = 0; d < kDim; ++d) {
        const std::size_t sd = static_cast<std::size_t>(d);
        exact += diag[sd] * (x[sd] - q[sd]) * (x[sd] - q[sd]);
      }
      const Vector zx = p.Project(x);
      double lb = 0.0;
      for (int d = 0; d < k; ++d) {
        const std::size_t sd = static_cast<std::size_t>(d);
        lb += (zx[sd] - zq[sd]) * (zx[sd] - zq[sd]);
      }
      EXPECT_LE(lb, exact * (1.0 + 1e-9) + 1e-12) << "k=" << k;
      if (k == kDim) {
        // Eq. 18: the full rotation preserves the quadratic form.
        EXPECT_NEAR(lb, exact, 1e-9 * (1.0 + exact));
      }
    }
  }
}

TEST(ProjectorTest, FullMatrixContractive) {
  Rng rng(11);
  std::vector<Vector> pts;
  for (int i = 0; i < 200; ++i) pts.push_back(rng.GaussianVector(kDim));
  const Matrix a = RandomPsd(kDim, rng);
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const Vector q = rng.GaussianVector(kDim);
  for (int k : {1, kDim / 2, kDim}) {
    const Projector p = Projector::Fit(a, block.view(), k);
    const Vector zq = p.Project(q);
    for (const Vector& x : pts) {
      Vector diff(static_cast<std::size_t>(kDim));
      for (int d = 0; d < kDim; ++d) {
        const std::size_t sd = static_cast<std::size_t>(d);
        diff[sd] = x[sd] - q[sd];
      }
      const double exact = linalg::QuadraticForm(diff, a, diff);
      const Vector zx = p.Project(x);
      double lb = 0.0;
      for (int d = 0; d < k; ++d) {
        const std::size_t sd = static_cast<std::size_t>(d);
        lb += (zx[sd] - zq[sd]) * (zx[sd] - zq[sd]);
      }
      EXPECT_LE(lb, exact * (1.0 + 1e-9) + 1e-12) << "k=" << k;
      if (k == kDim) {
        EXPECT_NEAR(lb, exact, 1e-8 * (1.0 + exact));
      }
    }
  }
}

TEST(ProjectorTest, CertifiesContractiveness) {
  Rng rng(5);
  std::vector<Vector> pts;
  for (int i = 0; i < 50; ++i) pts.push_back(rng.GaussianVector(4));
  const FlatBlock block = FlatBlock::FromPoints(pts);
  EXPECT_TRUE(Projector::Fit(RandomPsd(4, rng), block.view(), 2).contractive());
  EXPECT_TRUE(
      Projector::FitDiagonal(Vector(4, 1.0), block.view(), 2).contractive());
  // An indefinite "metric" must be refused: no non-negative reduced
  // distance can lower-bound a form that goes negative.
  Matrix indefinite(4, 4, 0.0);
  for (int i = 0; i < 4; ++i) indefinite(i, i) = (i % 2 == 0) ? 1.0 : -1.0;
  EXPECT_FALSE(Projector::Fit(indefinite, block.view(), 2).contractive());
}

TEST(ProjectorTest, ClampsRequestedDims) {
  Rng rng(13);
  std::vector<Vector> pts;
  for (int i = 0; i < 50; ++i) pts.push_back(rng.GaussianVector(4));
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const Vector ones(4, 1.0);
  EXPECT_EQ(Projector::FitDiagonal(ones, block.view(), 99).output_dim(), 4);
  EXPECT_EQ(Projector::FitDiagonal(ones, block.view(), 0).output_dim(), 1);
}

class FilterRefineExactnessTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FilterRefineExactnessTest, MatchesLinearScanForAllMetrics) {
  const int pca_dims = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  ThreadPool pool(threads);
  Rng rng(42);
  const std::vector<Vector> pts = TieHeavyPoints(400, rng);

  const EuclideanDistance euclidean(pts[5]);
  ExpectExact(pts, euclidean, pca_dims, &pool);

  Vector weights(kDim);
  for (double& w : weights) w = rng.Uniform(0.0, 2.0);
  const WeightedEuclideanDistance weighted(pts[9], weights);
  ExpectExact(pts, weighted, pca_dims, &pool);

  const MahalanobisDistance mahalanobis(pts[3], RandomPsd(kDim, rng));
  ExpectExact(pts, mahalanobis, pca_dims, &pool);

  ExpectExact(pts, MakeDisjunctive(pts, stats::CovarianceScheme::kDiagonal),
              pca_dims, &pool);
  ExpectExact(pts, MakeDisjunctive(pts, stats::CovarianceScheme::kInverse),
              pca_dims, &pool);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndThreads, FilterRefineExactnessTest,
    ::testing::Combine(::testing::Values(1, kDim / 2, kDim, -1),
                       ::testing::Values(1, 4)));

TEST(FilterRefineIndexTest, PrunesWellSeparatedClusters) {
  Rng rng(99);
  dataset::GaussianClustersOptions opt;
  opt.dim = kDim;
  opt.num_clusters = 8;
  opt.points_per_cluster = 300;
  opt.inter_cluster_distance = 8.0;
  const std::vector<Vector> pts =
      dataset::GenerateGaussianClusters(opt, rng).points;
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const FilterRefineIndex filter(block.view(), kDim / 4);
  const MahalanobisDistance dist(pts[0], RandomPsd(kDim, rng));
  SearchStats stats;
  const auto got = filter.Search(dist, 20, &stats);
  const LinearScanIndex oracle(&pts);
  EXPECT_EQ(got, oracle.Search(dist, 20));
  // The point of the filter: far clusters pruned, so full-dimension
  // evaluations stay well below the database size.
  EXPECT_LT(stats.distance_evaluations, static_cast<long long>(pts.size()) / 2);
}

TEST(FilterRefineIndexTest, FallsBackOnOpaqueMetric) {
  /// L1 is not a quadratic form: Decompose stays false and the index must
  /// still answer exactly via the exhaustive path.
  class ManhattanDistance final : public DistanceFunction {
   public:
    explicit ManhattanDistance(Vector query) : query_(std::move(query)) {}
    int dim() const override { return static_cast<int>(query_.size()); }
    double Distance(const Vector& x) const override {
      double sum = 0.0;
      for (std::size_t i = 0; i < query_.size(); ++i) {
        sum += std::abs(x[i] - query_[i]);
      }
      return sum;
    }

   private:
    Vector query_;
  };

  Rng rng(3);
  const std::vector<Vector> pts = TieHeavyPoints(200, rng);
  const ManhattanDistance dist(pts[1]);
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const FilterRefineIndex filter(block.view(), 4);
  const LinearScanIndex oracle(&pts);
  EXPECT_EQ(filter.Search(dist, 10), oracle.Search(dist, 10));
  EXPECT_EQ(filter.rebuilds(), 0);  // The filter stage never engaged.
}

TEST(FilterRefineIndexTest, CachesProjectionPerCovariance) {
  Rng rng(21);
  const std::vector<Vector> pts = TieHeavyPoints(300, rng);
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const FilterRefineIndex filter(block.view(), 4);
  const EuclideanDistance a(pts[0]);
  const EuclideanDistance b(pts[50]);  // Different query, same covariance.
  // Each search is run for its cache side effect; only rebuilds() is under
  // test (result parity is covered by the bit-for-bit tests above).
  DiscardResult(filter.Search(a, 10));
  DiscardResult(filter.Search(b, 10));
  EXPECT_EQ(filter.rebuilds(), 1);

  Vector weights(kDim, 0.5);
  DiscardResult(filter.Search(WeightedEuclideanDistance(pts[0], weights), 10));
  EXPECT_EQ(filter.rebuilds(), 2);  // New covariance structure.
  DiscardResult(filter.Search(WeightedEuclideanDistance(pts[7], weights), 10));
  EXPECT_EQ(filter.rebuilds(), 2);  // Same weights hit the cache again.
}

TEST(FilterRefineIndexTest, ConcurrentFirstSearchesInstallOneProjection) {
  // The projector refit and block repack run outside the cache mutex (the
  // repack fans out on the thread pool, and blocking there while holding
  // the lock would stall every concurrent searcher). Racing first-time
  // searches may refit redundantly, but exactly one projection wins the
  // install, everyone returns oracle-exact results, and rebuilds() counts
  // installs — not the racing refits.
  Rng rng(33);
  const std::vector<Vector> pts = TieHeavyPoints(300, rng);
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const FilterRefineIndex filter(block.view(), 4);
  const LinearScanIndex oracle(&pts);
  const std::vector<Neighbor> expected =
      oracle.Search(EuclideanDistance(pts[0]), 10);

  constexpr int kThreads = 8;
  std::vector<std::vector<Neighbor>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&filter, &got, &pts, t] {
      got[static_cast<std::size_t>(t)] =
          filter.Search(EuclideanDistance(pts[0]), 10);
    });
  }
  for (std::thread& th : threads) th.join();

  for (const auto& result : got) EXPECT_EQ(result, expected);
  EXPECT_EQ(filter.rebuilds(), 1);
}

TEST(FilterRefineIndexTest, RecordsRegistryMetrics) {
  auto& registry = MetricsRegistry::Global();
  const long long searches_before =
      registry.CounterValue("index.filter_refine.searches");
  SetMetricsEnabled(true);
  Rng rng(17);
  const std::vector<Vector> pts = TieHeavyPoints(200, rng);
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const FilterRefineIndex filter(block.view(), 4);
  // Run for the registry side effects asserted below.
  DiscardResult(filter.Search(EuclideanDistance(pts[0]), 10));
  SetMetricsEnabled(false);
  EXPECT_EQ(registry.CounterValue("index.filter_refine.searches"),
            searches_before + 1);
  EXPECT_GT(registry.CounterValue("index.filter_refine.candidates"), 0);
  EXPECT_GE(registry.CounterValue("index.filter_refine.rebuilds"), 1);
}

TEST(FilterRefineIndexTest, HandlesDegenerateThetaAllDuplicates) {
  // Every point identical to the query: θ = 0 forces the refine-everything
  // path, and the result is still the k lowest ids at distance 0.
  const std::vector<Vector> pts(50, Vector(kDim, 1.5));
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const FilterRefineIndex filter(block.view(), 4);
  const auto got = filter.Search(EuclideanDistance(Vector(kDim, 1.5)), 5);
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].id, i);
    EXPECT_EQ(got[static_cast<std::size_t>(i)].distance, 0.0);
  }
}

}  // namespace
}  // namespace qcluster::index
