#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/falcon.h"
#include "baselines/qex.h"
#include "baselines/qpm.h"
#include "common/rng.h"
#include "index/linear_scan.h"

namespace qcluster::baselines {
namespace {

using core::RelevantItem;
using linalg::Vector;

struct TwoModeWorld {
  linalg::FlatBlock points;
  std::vector<int> mode_a_ids, mode_b_ids;

  explicit TwoModeWorld(Rng& rng) {
    std::vector<Vector> rows;
    for (int i = 0; i < 25; ++i) {
      mode_a_ids.push_back(static_cast<int>(rows.size()));
      rows.push_back({0.3 * rng.Gaussian(), 0.3 * rng.Gaussian()});
      mode_b_ids.push_back(static_cast<int>(rows.size()));
      rows.push_back({8.0 + 0.3 * rng.Gaussian(), 8.0 + 0.3 * rng.Gaussian()});
    }
    for (int i = 0; i < 300; ++i) {
      rows.push_back({rng.Uniform(-8.0, 16.0), rng.Uniform(-8.0, 16.0)});
    }
    points = linalg::FlatBlock::FromPoints(rows);
  }
};

TEST(QpmTest, QueryPointMovesToWeightedCentroid) {
  Rng rng(161);
  const TwoModeWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QpmOptions opt;
  opt.k = 20;
  opt.rocchio_alpha = 0.0;  // Pure centroid variant for an exact check.
  opt.rocchio_beta = 1.0;
  QueryPointMovement qpm(&world.points, &idx, opt);
  qpm.InitialQuery({0.0, 0.0});
  qpm.Feedback({{world.mode_a_ids[0], 1.0}, {world.mode_a_ids[1], 3.0}});
  const Vector& q = qpm.query_point();
  const Vector expected = linalg::Add(
      linalg::Scale(world.points[static_cast<std::size_t>(
                        world.mode_a_ids[0])], 0.25),
      linalg::Scale(world.points[static_cast<std::size_t>(
                        world.mode_a_ids[1])], 0.75));
  EXPECT_TRUE(linalg::AllClose(q, expected, 1e-9));
}

TEST(QpmTest, RocchioAnchorsQueryNearOriginal) {
  // With the classic coefficients (alpha 1, beta 0.75) one feedback round
  // moves the query only beta/(alpha+beta) of the way to the centroid.
  const auto points = linalg::FlatBlock::FromPoints({{7.0, 0.0}, {7.0, 0.0}});
  const index::LinearScanIndex idx(points.view());
  QpmOptions opt;
  opt.k = 2;
  QueryPointMovement qpm(&points, &idx, opt);
  qpm.InitialQuery({0.0, 0.0});
  qpm.Feedback({{0, 1.0}, {1, 1.0}});
  // Expected: (1*0 + 0.75*7) / 1.75 = 3.0.
  EXPECT_NEAR(qpm.query_point()[0], 3.0, 1e-9);
  EXPECT_NEAR(qpm.query_point()[1], 0.0, 1e-9);
}

TEST(QpmTest, RepeatedFeedbackConvergesToCentroid) {
  const auto points = linalg::FlatBlock::FromPoints({{7.0, 0.0}, {7.0, 0.0}});
  const index::LinearScanIndex idx(points.view());
  QpmOptions opt;
  opt.k = 2;
  QueryPointMovement qpm(&points, &idx, opt);
  qpm.InitialQuery({0.0, 0.0});
  for (int i = 0; i < 30; ++i) {
    qpm.Feedback({{0, 1.0}, {1, 1.0}});
  }
  EXPECT_NEAR(qpm.query_point()[0], 7.0, 1e-3);
}

TEST(QpmTest, WeightsInverseToSpread) {
  // Relevant points spread widely in x, tightly in y: weight_y > weight_x.
  const auto points = linalg::FlatBlock::FromPoints(
      {{-5.0, 0.0}, {5.0, 0.0}, {0.0, 0.1}, {0.0, -0.1}});
  const index::LinearScanIndex idx(points.view());
  QpmOptions opt;
  opt.k = 4;
  QueryPointMovement qpm(&points, &idx, opt);
  qpm.InitialQuery({0.0, 0.0});
  qpm.Feedback({{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}});
  EXPECT_GT(qpm.weights()[1], qpm.weights()[0]);
}

TEST(QpmTest, SingleContourMissesSecondMode) {
  // The structural weakness the paper exploits: QPM centers between the
  // modes and retrieves background there.
  Rng rng(162);
  const TwoModeWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QpmOptions opt;
  opt.k = 30;
  opt.rocchio_alpha = 0.0;  // Pure centroid variant: the midpoint is exact.
  opt.rocchio_beta = 1.0;
  QueryPointMovement qpm(&world.points, &idx, opt);
  auto result = qpm.InitialQuery(world.points[0]);
  std::vector<RelevantItem> marked;
  for (int id : world.mode_a_ids) marked.push_back({id, 1.0});
  for (int id : world.mode_b_ids) marked.push_back({id, 1.0});
  result = qpm.Feedback(marked);
  // The query point lands between the modes.
  EXPECT_NEAR(qpm.query_point()[0], 4.0, 1.0);
  EXPECT_NEAR(qpm.query_point()[1], 4.0, 1.0);
}

TEST(QpmTest, ResetClearsState) {
  Rng rng(163);
  const TwoModeWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QueryPointMovement qpm(&world.points, &idx, QpmOptions{});
  qpm.InitialQuery({0.0, 0.0});
  qpm.Feedback({{0, 1.0}});
  qpm.Reset();
  EXPECT_TRUE(qpm.query_point().empty());
  EXPECT_EQ(qpm.name(), "qpm");
}

TEST(QexTest, BuildsRequestedRepresentatives) {
  Rng rng(164);
  const TwoModeWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QexOptions opt;
  opt.k = 30;
  opt.num_representatives = 3;
  QueryExpansion qex(&world.points, &idx, opt);
  qex.InitialQuery(world.points[0]);
  std::vector<RelevantItem> marked;
  for (int i = 0; i < 6; ++i) marked.push_back({world.mode_a_ids[i], 1.0});
  for (int i = 0; i < 6; ++i) marked.push_back({world.mode_b_ids[i], 1.0});
  qex.Feedback(marked);
  EXPECT_LE(qex.clusters().size(), 3u);
  EXPECT_GE(qex.clusters().size(), 2u);
}

TEST(QexDistanceTest, ConvexAggregatePenalizesSingleModeProximity) {
  // QEX's defining flaw: the weighted-sum aggregate makes a point close to
  // one representative but far from the other score *worse* than the
  // midpoint. Verify the convex behavior (opposite of the fuzzy OR).
  std::vector<core::Cluster> clusters;
  clusters.push_back(core::Cluster::FromPoint({0.0, 0.0}, 1.0));
  clusters.push_back(core::Cluster::FromPoint({8.0, 0.0}, 1.0));
  const QexDistance d(clusters, /*min_variance=*/1.0);
  const double near_mode = d.Distance({0.5, 0.0});
  const double midpoint = d.Distance({4.0, 0.0});
  // Convex combination: midpoint (16+16)/2=16, near-mode (0.25+56.25)/2=28.25.
  EXPECT_GT(near_mode, midpoint);
}

TEST(QexDistanceTest, MinDistanceIsLowerBound) {
  Rng rng(165);
  std::vector<core::Cluster> clusters;
  clusters.push_back(core::Cluster::FromPoint({-1.0, 0.0}, 1.0));
  clusters.push_back(core::Cluster::FromPoint({1.0, 1.0}, 2.0));
  const QexDistance d(clusters, 0.5);
  for (int t = 0; t < 100; ++t) {
    index::Rect r = index::Rect::Empty(2);
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

TEST(FalconDistanceTest, FuzzyOrZeroAtAnyGoodPoint) {
  const FalconDistance d({{0.0, 0.0}, {5.0, 5.0}}, -5.0);
  EXPECT_DOUBLE_EQ(d.Distance({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(d.Distance({5.0, 5.0}), 0.0);
}

TEST(FalconDistanceTest, PrefersProximityToAnyPoint) {
  const FalconDistance d({{0.0, 0.0}, {8.0, 0.0}}, -5.0);
  EXPECT_LT(d.Distance({0.5, 0.0}), d.Distance({4.0, 0.0}));
}

TEST(FalconDistanceTest, MatchesHandComputedAggregate) {
  const FalconDistance d({{0.0}, {4.0}}, -2.0);
  // Distances from x=1: 1 and 3. D = ((1^-2 + 3^-2)/2)^{-1/2}.
  const double expected = std::pow((1.0 + 1.0 / 9.0) / 2.0, -0.5);
  EXPECT_NEAR(d.Distance({1.0}), expected, 1e-12);
}

TEST(FalconDistanceTest, MinDistanceIsLowerBound) {
  Rng rng(166);
  const FalconDistance d({{-1.0, -1.0}, {2.0, 2.0}}, -5.0);
  for (int t = 0; t < 100; ++t) {
    index::Rect r = index::Rect::Empty(2);
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

TEST(FalconTest, GoodSetAccumulatesDistinctIds) {
  Rng rng(167);
  const TwoModeWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  Falcon falcon(&world.points, &idx, FalconOptions{});
  falcon.InitialQuery(world.points[0]);
  falcon.Feedback({{0, 1.0}, {1, 1.0}});
  EXPECT_EQ(falcon.good_set_size(), 2);
  falcon.Feedback({{0, 1.0}, {2, 1.0}});
  EXPECT_EQ(falcon.good_set_size(), 3);
  EXPECT_EQ(falcon.name(), "falcon");
}

TEST(FalconTest, RetrievesBothModes) {
  Rng rng(168);
  const TwoModeWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  FalconOptions opt;
  opt.k = 50;
  Falcon falcon(&world.points, &idx, opt);
  falcon.InitialQuery(world.points[0]);
  std::vector<RelevantItem> marked;
  for (int id : world.mode_a_ids) marked.push_back({id, 1.0});
  for (int id : world.mode_b_ids) marked.push_back({id, 1.0});
  const auto result = falcon.Feedback(marked);
  int near_a = 0, near_b = 0;
  for (const auto& n : result) {
    const Vector& p = world.points[static_cast<std::size_t>(n.id)];
    if (linalg::Distance(p, {0, 0}) < 2.0) ++near_a;
    if (linalg::Distance(p, {8, 8}) < 2.0) ++near_b;
  }
  EXPECT_GT(near_a, 10);
  EXPECT_GT(near_b, 10);
}

}  // namespace
}  // namespace qcluster::baselines
