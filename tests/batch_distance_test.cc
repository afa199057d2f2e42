// Batch-vs-scalar parity: every DistanceBatch kernel must reproduce the
// scalar Distance values bit for bit — both route through the shared SIMD
// kernels (linalg/simd.h) — for all distance types, with diagonal and full
// covariance shapes, so batched and scalar searches rank identically. Also
// pins the base-class DistanceBatch fallback to zero per-row allocations.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/disjunctive_distance.h"
#include "counting_new.h"
#include "index/distance.h"
#include "linalg/flat_view.h"

namespace qcluster::index {
namespace {

using core::Cluster;
using core::DisjunctiveDistance;
using linalg::FlatBlock;
using linalg::FlatView;
using linalg::Matrix;
using linalg::Vector;

std::vector<Vector> RandomPoints(int n, int dim, Rng& rng) {
  std::vector<Vector> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pts.push_back(rng.GaussianVector(dim));
  return pts;
}

void ExpectBatchMatchesScalar(const DistanceFunction& dist,
                              const std::vector<Vector>& pts) {
  const FlatBlock block = FlatBlock::FromPoints(pts);
  std::vector<double> batch(pts.size());
  dist.DistanceBatch(block.view(), batch.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(batch[i], dist.Distance(pts[i])) << "point " << i;
  }
}

TEST(FlatViewTest, PacksRowMajor) {
  const std::vector<Vector> pts{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const FlatView view = block.view();
  ASSERT_EQ(view.n, 3u);
  ASSERT_EQ(view.dim, 2);
  EXPECT_EQ(view.row(1)[0], 3.0);
  EXPECT_EQ(view.row(2)[1], 6.0);
  const FlatView slice = view.Slice(1, 3);
  EXPECT_EQ(slice.n, 2u);
  EXPECT_EQ(slice.row(0)[0], 3.0);
}

TEST(FlatViewTest, BlockRowsFillInPlaceAndCompareByValue) {
  FlatBlock block(2, 3);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_EQ(block.dim(), 3);
  block.mutable_row(1)[2] = 7.0;
  EXPECT_EQ(block.row(1)[2], 7.0);
  EXPECT_EQ(block[1], (Vector{0.0, 0.0, 7.0}));
  EXPECT_EQ(block, FlatBlock::FromPoints({{0.0, 0.0, 0.0}, {0.0, 0.0, 7.0}}));
  EXPECT_FALSE(block == FlatBlock::FromPoints({{0.0, 0.0, 0.0}}));
}

TEST(FlatViewTest, EmptyBlock) {
  const FlatBlock block = FlatBlock::FromPoints({});
  EXPECT_TRUE(block.empty());
  EXPECT_TRUE(block.view().empty());
}

TEST(BatchParityTest, Euclidean) {
  Rng rng(411);
  const std::vector<Vector> pts = RandomPoints(200, 5, rng);
  ExpectBatchMatchesScalar(EuclideanDistance(rng.GaussianVector(5)), pts);
}

TEST(BatchParityTest, WeightedEuclidean) {
  // MARS's per-dimension weights, drawn from [0, 5), as a diagonal matrix.
  Rng rng(412);
  const std::vector<Vector> pts = RandomPoints(200, 4, rng);
  Vector w(4);
  for (double& x : w) x = rng.Uniform(0.0, 5.0);
  ExpectBatchMatchesScalar(
      MahalanobisDistance(rng.GaussianVector(4), Matrix::Diagonal(w)), pts);
}

TEST(BatchParityTest, MahalanobisDiagonal) {
  Rng rng(413);
  const std::vector<Vector> pts = RandomPoints(200, 4, rng);
  Vector diag(4);
  for (double& x : diag) x = rng.Uniform(0.1, 3.0);
  ExpectBatchMatchesScalar(
      MahalanobisDistance(rng.GaussianVector(4), Matrix::Diagonal(diag)), pts);
}

TEST(BatchParityTest, MahalanobisFull) {
  Rng rng(414);
  const std::vector<Vector> pts = RandomPoints(200, 3, rng);
  const Matrix a{{2.0, 0.3, 0.1}, {0.3, 1.5, 0.2}, {0.1, 0.2, 0.8}};
  ExpectBatchMatchesScalar(MahalanobisDistance(rng.GaussianVector(3), a), pts);
}

DisjunctiveDistance MakeDisjunctive(Rng& rng, stats::CovarianceScheme scheme) {
  std::vector<Cluster> clusters;
  for (int c = 0; c < 3; ++c) {
    Cluster cluster(3);
    const Vector center = rng.GaussianVector(3);
    for (int i = 0; i < 15; ++i) {
      cluster.Add(linalg::Add(center, rng.GaussianVector(3)), 1.0);
    }
    clusters.push_back(std::move(cluster));
  }
  return DisjunctiveDistance(clusters, scheme, 1e-4);
}

TEST(BatchParityTest, DisjunctiveDiagonalScheme) {
  Rng rng(415);
  const auto dist = MakeDisjunctive(rng, stats::CovarianceScheme::kDiagonal);
  ExpectBatchMatchesScalar(dist, RandomPoints(200, 3, rng));
}

TEST(BatchParityTest, DisjunctiveFullScheme) {
  Rng rng(416);
  const auto dist = MakeDisjunctive(rng, stats::CovarianceScheme::kInverse);
  ExpectBatchMatchesScalar(dist, RandomPoints(200, 3, rng));
}

TEST(BatchParityTest, DefaultBatchImplementation) {
  // A DistanceFunction that only implements the per-row virtual must still
  // get a correct batch path from the base class.
  class L1Distance final : public DistanceFunction {
   public:
    explicit L1Distance(Vector q) : q_(std::move(q)) {}
    int dim() const override { return static_cast<int>(q_.size()); }
    double DistanceRow(const double* x) const override {
      double sum = 0.0;
      for (std::size_t i = 0; i < q_.size(); ++i) {
        sum += std::abs(x[i] - q_[i]);
      }
      return sum;
    }

   private:
    Vector q_;
  };
  Rng rng(417);
  ExpectBatchMatchesScalar(L1Distance(rng.GaussianVector(4)),
                           RandomPoints(100, 4, rng));
}

TEST(BatchParityTest, DefaultBatchDoesNotAllocatePerRow) {
  // The base-class batch loops over DistanceRow on the rows in place:
  // scoring a subclass that only implements DistanceRow allocates nothing.
  class L1Distance final : public DistanceFunction {
   public:
    explicit L1Distance(Vector q) : q_(std::move(q)) {}
    int dim() const override { return static_cast<int>(q_.size()); }
    double DistanceRow(const double* x) const override {
      double sum = 0.0;
      for (std::size_t i = 0; i < q_.size(); ++i) {
        sum += std::abs(x[i] - q_[i]);
      }
      return sum;
    }

   private:
    Vector q_;
  };
  Rng rng(420);
  const L1Distance dist(rng.GaussianVector(6));
  const FlatBlock block = FlatBlock::FromPoints(RandomPoints(256, 6, rng));
  std::vector<double> out(block.size());
  dist.DistanceBatch(block.view(), out.data());  // Warm up.
  const long long before = g_alloc_count.load(std::memory_order_relaxed);
  dist.DistanceBatch(block.view(), out.data());
  const long long after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "default DistanceBatch must not allocate";
}

TEST(BatchParityTest, DisjunctivePointOnCentroidIsZero) {
  Rng rng(418);
  std::vector<Cluster> clusters;
  Cluster cluster(2);
  cluster.Add({1.0, 1.0}, 1.0);
  cluster.Add({3.0, 3.0}, 1.0);
  clusters.push_back(std::move(cluster));
  const DisjunctiveDistance dist(clusters,
                                 stats::CovarianceScheme::kDiagonal, 1e-4);
  const Vector centroid{2.0, 2.0};
  EXPECT_EQ(dist.Distance(centroid), 0.0);
  const FlatBlock block = FlatBlock::FromPoints({centroid, {5.0, 5.0}});
  double out[2];
  dist.DistanceBatch(block.view(), out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_GT(out[1], 0.0);
}

TEST(MahalanobisConstructionTest, DiagonalMinDistanceIsExactBound) {
  // Diagonal metrics read their spectral bound off the diagonal (no
  // eigendecomposition); the rectangle bound is the exact per-dimension
  // clamped form, tight on axis-aligned offsets.
  const MahalanobisDistance d({0.0, 0.0},
                              Matrix::Diagonal(Vector{4.0, 0.25}));
  Rect r = Rect::Empty(2);
  r.Expand(Vector{1.0, 0.0}.data());
  r.Expand(Vector{2.0, 0.0}.data());
  // Offset 1 along dim 0 only: bound = 4 * 1^2.
  EXPECT_DOUBLE_EQ(d.MinDistance(r), 4.0);
  EXPECT_DOUBLE_EQ(d.Distance({1.0, 0.0}), 4.0);
}

TEST(MahalanobisConstructionTest, FullMatrixBoundStaysValid) {
  Rng rng(419);
  const Matrix a{{2.0, 0.5}, {0.5, 1.0}};
  const MahalanobisDistance d({0.0, 0.0}, a);
  for (int t = 0; t < 100; ++t) {
    Rect r = Rect::Empty(2);
    r.Expand(rng.GaussianVector(2).data());
    r.Expand(rng.GaussianVector(2).data());
    const double bound = d.MinDistance(r);
    for (int s = 0; s < 10; ++s) {
      const Vector p{rng.Uniform(r.lo[0], r.hi[0]),
                     rng.Uniform(r.lo[1], r.hi[1])};
      EXPECT_GE(d.Distance(p) + 1e-9, bound);
    }
  }
}

}  // namespace
}  // namespace qcluster::index
