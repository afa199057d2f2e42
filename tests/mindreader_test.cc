#include "baselines/mindreader.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/linear_scan.h"

namespace qcluster::baselines {
namespace {

using linalg::Vector;

TEST(MindReaderTest, QueryPointIsWeightedCentroid) {
  const std::vector<Vector> points{{0.0, 0.0}, {4.0, 0.0}, {9.0, 9.0}};
  const auto block = linalg::FlatBlock::FromPoints(points);
  const index::LinearScanIndex idx(block.view());
  MindReader mr(&block, &idx, MindReaderOptions{});
  mr.InitialQuery({0.0, 0.0});
  mr.Feedback({{0, 1.0}, {1, 3.0}});
  EXPECT_NEAR(mr.query_point()[0], 3.0, 1e-12);
  EXPECT_NEAR(mr.query_point()[1], 0.0, 1e-12);
  EXPECT_EQ(mr.name(), "mindreader");
}

TEST(MindReaderTest, MetricCapturesCorrelatedSpread) {
  // Relevant set stretched along the diagonal: MindReader's full-matrix
  // metric must make the diagonal direction "cheap" and the
  // anti-diagonal direction "expensive" — what MARS's axis-aligned
  // weighting cannot express.
  Rng rng(251);
  std::vector<Vector> points;
  std::vector<core::RelevantItem> marked;
  for (int i = 0; i < 60; ++i) {
    const double t = rng.Gaussian();
    points.push_back({t, t + 0.05 * rng.Gaussian()});
    marked.push_back({i, 1.0});
  }
  // Two probes at the same Euclidean distance from the centroid.
  points.push_back({2.0, 2.0});    // Along the correlated direction.
  points.push_back({2.0, -2.0});   // Across it.
  const auto block = linalg::FlatBlock::FromPoints(points);
  const index::LinearScanIndex idx(block.view());
  MindReaderOptions opt;
  opt.k = 5;
  MindReader mr(&block, &idx, opt);
  mr.InitialQuery(points[0]);
  mr.Feedback(marked);

  const index::MahalanobisDistance dist(mr.query_point(), mr.metric());
  EXPECT_LT(dist.Distance({2.0, 2.0}) * 10.0, dist.Distance({2.0, -2.0}));
}

TEST(MindReaderTest, RetrievesAlongCorrelation) {
  Rng rng(252);
  std::vector<Vector> points;
  std::vector<core::RelevantItem> marked;
  for (int i = 0; i < 40; ++i) {
    const double t = rng.Gaussian();
    points.push_back({t, t + 0.05 * rng.Gaussian()});
    marked.push_back({i, 1.0});
  }
  const int along = static_cast<int>(points.size());
  points.push_back({3.0, 3.0});
  const int across = static_cast<int>(points.size());
  points.push_back({2.0, -2.0});  // Euclidean-closer to the centroid!
  const auto block = linalg::FlatBlock::FromPoints(points);
  const index::LinearScanIndex idx(block.view());
  MindReaderOptions opt;
  opt.k = static_cast<int>(points.size());
  MindReader mr(&block, &idx, opt);
  mr.InitialQuery(points[0]);
  const auto result = mr.Feedback(marked);
  // The along-diagonal point must rank above the across point.
  int rank_along = -1, rank_across = -1;
  for (std::size_t i = 0; i < result.size(); ++i) {
    if (result[i].id == along) rank_along = static_cast<int>(i);
    if (result[i].id == across) rank_across = static_cast<int>(i);
  }
  ASSERT_GE(rank_along, 0);
  ASSERT_GE(rank_across, 0);
  EXPECT_LT(rank_along, rank_across);
}

TEST(MindReaderTest, ResetAndDuplicateHandling) {
  const std::vector<Vector> points{{0.0}, {1.0}, {2.0}};
  const auto block = linalg::FlatBlock::FromPoints(points);
  const index::LinearScanIndex idx(block.view());
  MindReader mr(&block, &idx, MindReaderOptions{});
  mr.InitialQuery({0.0});
  mr.Feedback({{0, 1.0}, {1, 1.0}});
  const Vector q1 = mr.query_point();
  mr.Feedback({{0, 1.0}, {1, 1.0}});  // Duplicates: no change.
  EXPECT_TRUE(linalg::AllClose(mr.query_point(), q1, 1e-12));
  mr.Reset();
  EXPECT_TRUE(mr.query_point().empty());
}

}  // namespace
}  // namespace qcluster::baselines
