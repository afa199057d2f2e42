#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"

namespace qcluster::index {
namespace {

using linalg::FlatBlock;
using linalg::Vector;

FlatBlock RandomPoints(int n, int dim, Rng& rng) {
  std::vector<Vector> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pts.push_back(rng.GaussianVector(dim));
  return FlatBlock::FromPoints(pts);
}

TEST(RectTest, ExpandAndDistance) {
  Rect r = Rect::Empty(2);
  r.Expand(Vector{0.0, 0.0}.data());
  r.Expand(Vector{2.0, 4.0}.data());
  EXPECT_DOUBLE_EQ(r.SquaredEuclideanDistance({1.0, 2.0}), 0.0);   // Inside.
  EXPECT_DOUBLE_EQ(r.SquaredEuclideanDistance({3.0, 4.0}), 1.0);   // Right.
  EXPECT_DOUBLE_EQ(r.SquaredEuclideanDistance({-1.0, 5.0}), 2.0);  // Corner.
}

TEST(EuclideanDistanceTest, ValuesAndBounds) {
  const EuclideanDistance d({0.0, 0.0});
  EXPECT_DOUBLE_EQ(d.Distance({3.0, 4.0}), 25.0);
  Rect r = Rect::Empty(2);
  r.Expand(Vector{1.0, 0.0}.data());
  r.Expand(Vector{2.0, 1.0}.data());
  EXPECT_DOUBLE_EQ(d.MinDistance(r), 1.0);
}

TEST(MahalanobisDistanceTest, DiagonalWeightsApply) {
  const MahalanobisDistance d({0.0, 0.0},
                              linalg::Matrix::Diagonal(Vector{1.0, 10.0}));
  EXPECT_DOUBLE_EQ(d.Distance({1.0, 1.0}), 11.0);
  Rect r = Rect::Empty(2);
  r.Expand(Vector{0.0, 2.0}.data());
  r.Expand(Vector{0.0, 3.0}.data());
  EXPECT_DOUBLE_EQ(d.MinDistance(r), 40.0);
}

TEST(MahalanobisDistanceTest, MatchesQuadraticForm) {
  const linalg::Matrix a{{2.0, 0.5}, {0.5, 1.0}};
  const MahalanobisDistance d({1.0, 1.0}, a);
  // diff = (1, 2): 2*1 + 2*0.5*1*2 + 1*4 = 8.
  EXPECT_NEAR(d.Distance({2.0, 3.0}), 8.0, 1e-12);
}

TEST(MahalanobisDistanceTest, RectBoundIsLowerBound) {
  Rng rng(91);
  const linalg::Matrix a{{2.0, 0.5}, {0.5, 1.0}};
  const MahalanobisDistance d({0.0, 0.0}, a);
  for (int t = 0; t < 200; ++t) {
    Rect r = Rect::Empty(2);
    r.Expand(rng.GaussianVector(2).data());
    r.Expand(rng.GaussianVector(2).data());
    const double bound = d.MinDistance(r);
    // Sample points inside the rect: distance must exceed the bound.
    for (int s = 0; s < 10; ++s) {
      const Vector p{rng.Uniform(r.lo[0], r.hi[0]),
                     rng.Uniform(r.lo[1], r.hi[1])};
      EXPECT_GE(d.Distance(p) + 1e-9, bound);
    }
  }
}

TEST(LinearScanTest, FindsExactNeighbors) {
  const FlatBlock pts =
      FlatBlock::FromPoints({{0, 0}, {1, 0}, {5, 5}, {0.5, 0}});
  const LinearScanIndex idx(pts.view());
  const EuclideanDistance d({0.0, 0.0});
  const std::vector<Neighbor> result = idx.Search(d, 2);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 0);
  EXPECT_EQ(result[1].id, 3);
}

TEST(LinearScanTest, KLargerThanDatabase) {
  const FlatBlock pts = FlatBlock::FromPoints({{0.0}, {1.0}});
  const LinearScanIndex idx(pts.view());
  EXPECT_EQ(idx.Search(EuclideanDistance({0.0}), 10).size(), 2u);
}

TEST(LinearScanTest, CountsDistanceEvaluations) {
  Rng rng(92);
  const FlatBlock pts = RandomPoints(100, 3, rng);
  const LinearScanIndex idx(pts.view());
  SearchStats stats;
  // Searched only for its cost accounting; the result set is exercised above.
  DiscardResult(idx.Search(EuclideanDistance({0, 0, 0}), 5, &stats));
  EXPECT_EQ(stats.distance_evaluations, 100);
}

TEST(TopKTest, SortsAndTruncates) {
  std::vector<Neighbor> all{{3, 5.0}, {1, 1.0}, {2, 3.0}, {0, 1.0}};
  const std::vector<Neighbor> top = TopK(all, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 0);  // Tie at distance 1: lower id first.
  EXPECT_EQ(top[1].id, 1);
  EXPECT_EQ(top[2].id, 2);
}

TEST(NeighborOrderTest, NanRowNeverDisplacesFiniteNeighbors) {
  // One NaN coordinate makes one distance NaN. Every index must still
  // return the k nearest finite points, at any thread count.
  Rng rng(3);
  std::vector<Vector> pts(5000, Vector(3));
  for (Vector& p : pts) {
    for (double& x : p) x = rng.Uniform();
  }
  pts[0][1] = std::numeric_limits<double>::quiet_NaN();
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const EuclideanDistance d({0.5, 0.5, 0.5});
  constexpr int kK = 8;

  std::vector<std::pair<double, int>> finite;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double dist = d.Distance(pts[i]);
    if (!std::isnan(dist)) finite.emplace_back(dist, static_cast<int>(i));
  }
  std::sort(finite.begin(), finite.end());
  std::vector<Neighbor> expected;
  for (int i = 0; i < kK; ++i) {
    expected.push_back(Neighbor{finite[static_cast<std::size_t>(i)].second,
                                finite[static_cast<std::size_t>(i)].first});
  }

  ThreadPool serial(1);
  ThreadPool parallel(4);
  EXPECT_EQ(LinearScanIndex(block.view(), &serial).Search(d, kK), expected);
  EXPECT_EQ(LinearScanIndex(block.view(), &parallel).Search(d, kK), expected);
  EXPECT_EQ(BrTree(&block).Search(d, kK), expected);
}

TEST(BrTreeTest, NanAtTheKthSlotDoesNotStopTheDescent) {
  // Leaves of 4, k = 4: the first leaf holds the NaN row and 3 finite rows,
  // so the heap fills with NaN on top. The next node popped is the right
  // subtree, whose leaf holds the true 4th neighbor (1, 0, 0); a NaN k-th
  // bound must not prune it in favour of the far leaf at y >= 50.
  std::vector<Vector> pts{{0.000, 0.0, 0.0}, {0.001, 0.1, 0.0},
                          {0.002, 0.2, 0.0}, {0.003, 0.3, 0.0},
                          {0.004, 50.0, 0.0}, {0.005, 60.0, 0.0},
                          {0.006, 70.0, 0.0}, {0.007, 80.0, 0.0}};
  for (double x : {1.0, 150.0, 160.0, 170.0, 180.0, 190.0, 195.0, 200.0}) {
    pts.push_back({x, 0.0, 0.0});
  }
  pts[0][2] = std::numeric_limits<double>::quiet_NaN();
  const FlatBlock block = FlatBlock::FromPoints(pts);
  BrTree::Options opt;
  opt.leaf_size = 4;
  const BrTree tree(&block, opt);
  const auto result = tree.Search(EuclideanDistance({0.0, 0.0, 0.0}), 4);
  ASSERT_EQ(result.size(), 4u);
  EXPECT_EQ(result[0].id, 1);
  EXPECT_EQ(result[1].id, 2);
  EXPECT_EQ(result[2].id, 3);
  EXPECT_EQ(result[3].id, 8);
}

TEST(BrTreeTest, NanInTheSplitDimensionMatchesSerialScanBitForBit) {
  // About 20% of the widest dimension's coordinates are NaN, so the bulk
  // load's median splits compare NaN on every level. The tree must still
  // return exactly the serial scan's ids and distance bits at every k,
  // NaN-distance rows included when k reaches them (Neighbor's == is false
  // on NaN, so the comparison is by bits).
  const auto same_bits = [](const std::vector<Neighbor>& a,
                            const std::vector<Neighbor>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id ||
          std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  ThreadPool serial(1);
  constexpr int kN = 600;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    std::vector<Vector> pts;
    for (int i = 0; i < kN; ++i) {
      Vector p = rng.GaussianVector(3);
      p[0] *= 10.0;  // The widest dimension, split first.
      if (rng.Uniform() < 0.2) p[0] = std::numeric_limits<double>::quiet_NaN();
      pts.push_back(std::move(p));
    }
    const FlatBlock block = FlatBlock::FromPoints(pts);
    const BrTree tree(&block);
    const LinearScanIndex scan(block.view(), &serial);
    for (int q = 0; q < 5; ++q) {
      const EuclideanDistance d(rng.GaussianVector(3));
      for (int k : {1, 7, 100, kN}) {
        EXPECT_TRUE(same_bits(tree.Search(d, k), scan.Search(d, k)))
            << "seed=" << seed << " query=" << q << " k=" << k;
      }
    }
  }
}

TEST(BrTreeTest, MatchesLinearScanEuclidean) {
  Rng rng(93);
  for (int n : {1, 10, 100, 500}) {
    const FlatBlock pts = RandomPoints(n, 3, rng);
    const BrTree tree(&pts);
    const LinearScanIndex scan(pts.view());
    for (int q = 0; q < 10; ++q) {
      const EuclideanDistance d(rng.GaussianVector(3));
      EXPECT_EQ(tree.Search(d, 7), scan.Search(d, 7)) << "n=" << n;
    }
  }
}

TEST(BrTreeTest, MatchesLinearScanWeighted) {
  Rng rng(94);
  const FlatBlock pts = RandomPoints(300, 4, rng);
  const BrTree tree(&pts);
  const LinearScanIndex scan(pts.view());
  for (int q = 0; q < 10; ++q) {
    Vector w(4);
    for (double& x : w) x = rng.Uniform(0.1, 5.0);
    const MahalanobisDistance d(rng.GaussianVector(4),
                                linalg::Matrix::Diagonal(w));
    EXPECT_EQ(tree.Search(d, 11), scan.Search(d, 11));
  }
}

TEST(BrTreeTest, MatchesLinearScanMahalanobis) {
  Rng rng(95);
  const FlatBlock pts = RandomPoints(300, 3, rng);
  const BrTree tree(&pts);
  const LinearScanIndex scan(pts.view());
  const linalg::Matrix a{{2.0, 0.3, 0.0}, {0.3, 1.0, 0.1}, {0.0, 0.1, 0.5}};
  for (int q = 0; q < 10; ++q) {
    const MahalanobisDistance d(rng.GaussianVector(3), a);
    EXPECT_EQ(tree.Search(d, 9), scan.Search(d, 9));
  }
}

TEST(BrTreeTest, PruningReducesWork) {
  Rng rng(96);
  const FlatBlock pts = RandomPoints(5000, 3, rng);
  const BrTree tree(&pts);
  SearchStats stats;
  // Searched only for its cost accounting; parity with the scan is covered
  // by BrTreeTest.MatchesLinearScan.
  DiscardResult(tree.Search(EuclideanDistance({0, 0, 0}), 10, &stats));
  EXPECT_LT(stats.distance_evaluations, 5000);
  EXPECT_GT(stats.nodes_visited, 0);
}

TEST(BrTreeTest, CachedSearchSameResultsLessWork) {
  Rng rng(97);
  const FlatBlock pts = RandomPoints(5000, 3, rng);
  const BrTree tree(&pts);

  WarmStart warm_state;
  const EuclideanDistance q1(rng.GaussianVector(3));
  SearchStats cold_stats;
  const auto cold = tree.SearchWarm(q1, 10, warm_state, &cold_stats);
  EXPECT_EQ(cold, tree.Search(q1, 10));
  EXPECT_GE(warm_state.size(), 10);

  // A slightly refined query (as in a feedback iteration).
  const EuclideanDistance q2(linalg::Add(rng.GaussianVector(3), {0.05, 0, 0}));
  SearchStats warm_stats;
  const auto warm = tree.SearchWarm(q2, 10, warm_state, &warm_stats);
  EXPECT_EQ(warm, tree.Search(q2, 10));  // Exactness is preserved.
}

TEST(BrTreeTest, EmptyDatabase) {
  const FlatBlock pts;
  const BrTree tree(&pts);
  EXPECT_TRUE(tree.Search(EuclideanDistance({0.0}), 3).empty());
}

TEST(BrTreeTest, LeafSizeOneStillCorrect) {
  Rng rng(98);
  const FlatBlock pts = RandomPoints(64, 2, rng);
  BrTree::Options opt;
  opt.leaf_size = 1;
  const BrTree tree(&pts, opt);
  const LinearScanIndex scan(pts.view());
  const EuclideanDistance d({0.0, 0.0});
  EXPECT_EQ(tree.Search(d, 5), scan.Search(d, 5));
  EXPECT_GT(tree.node_count(), 64);
}

TEST(BrTreeTest, DuplicatePointsHandled) {
  const FlatBlock pts = FlatBlock::FromPoints({{1, 1}, {1, 1}, {1, 1}, {2, 2}});
  const BrTree tree(&pts);
  const auto result = tree.Search(EuclideanDistance({1, 1}), 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 0);
  EXPECT_EQ(result[1].id, 1);
  EXPECT_EQ(result[2].id, 2);
}

}  // namespace
}  // namespace qcluster::index
