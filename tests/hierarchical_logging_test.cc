// Coverage for the hierarchical (centroid) clustering and the logging /
// bootstrap utilities.

#include <limits>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/hierarchical.h"
#include "eval/significance.h"

namespace qcluster {
namespace {

using core::Cluster;
using core::HierarchicalCluster;
using linalg::Vector;

std::vector<Vector> TwoBlobs(Rng& rng, int per_blob) {
  std::vector<Vector> pts;
  for (int i = 0; i < per_blob; ++i) {
    pts.push_back(linalg::Scale(rng.GaussianVector(2), 0.3));
    pts.push_back(linalg::Add(linalg::Scale(rng.GaussianVector(2), 0.3),
                              {10.0, 0.0}));
  }
  return pts;
}

TEST(HierarchicalTest, AllLinkagesSeparateTwoBlobs) {
  // Centroid linkage, the only one the paper's seeding uses.
  Rng rng(321);
  const std::vector<Vector> pts = TwoBlobs(rng, 10);
  const std::vector<double> scores(pts.size(), 1.0);
  const std::vector<Cluster> clusters = HierarchicalCluster(pts, scores, 2);
  ASSERT_EQ(clusters.size(), 2u);
  // One centroid near x=0, one near x=10.
  const double x0 = clusters[0].centroid()[0];
  const double x1 = clusters[1].centroid()[0];
  EXPECT_NEAR(std::min(x0, x1), 0.0, 1.0);
  EXPECT_NEAR(std::max(x0, x1), 10.0, 1.0);
}

TEST(HierarchicalTest, TargetEqualToPointCountIsIdentity) {
  const std::vector<Vector> pts{{0.0}, {5.0}, {9.0}};
  const std::vector<double> scores{1.0, 2.0, 3.0};
  const auto clusters = HierarchicalCluster(pts, scores, 3);
  ASSERT_EQ(clusters.size(), 3u);
  for (const Cluster& c : clusters) EXPECT_EQ(c.size(), 1);
}

TEST(HierarchicalTest, ScoresWeightCentroids) {
  const auto clusters = HierarchicalCluster({{0.0}, {10.0}}, {1.0, 3.0}, 1);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_NEAR(clusters[0].centroid()[0], 7.5, 1e-12);  // Eq. 2 weighting.
}

TEST(HierarchicalTest, NanPointsStillMergeToTheTarget) {
  // Every centroid distance is NaN, so no pair beats +inf; the pass must
  // still merge down to the target instead of indexing a missing pair.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Vector> pts{{nan, 0.0}, {nan, 1.0}, {nan, 2.0}};
  const auto clusters =
      HierarchicalCluster(pts, std::vector<double>(pts.size(), 1.0), 1);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 3);
}

TEST(LoggingTest, LevelFilterRoundTrip) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages must not evaluate their stream arguments.
  int evaluations = 0;
  auto count = [&evaluations] {
    ++evaluations;
    return 42;
  };
  QCLUSTER_LOG(kDebug) << count();
  EXPECT_EQ(evaluations, 0);
  QCLUSTER_LOG(kError) << count();
  EXPECT_EQ(evaluations, 1);
  SetLogLevel(before);
}

TEST(BootstrapTest, IntervalCoversMeanAndShrinksWithN) {
  Rng rng(323);
  std::vector<double> small, large;
  for (int i = 0; i < 10; ++i) small.push_back(rng.Gaussian(5.0, 1.0));
  for (int i = 0; i < 1000; ++i) large.push_back(rng.Gaussian(5.0, 1.0));
  auto ci_small = eval::BootstrapMeanCi(small, 0.05, 500, 1);
  auto ci_large = eval::BootstrapMeanCi(large, 0.05, 500, 2);
  ASSERT_TRUE(ci_small.ok());
  ASSERT_TRUE(ci_large.ok());
  EXPECT_LE(ci_small.value().lower, ci_small.value().mean);
  EXPECT_GE(ci_small.value().upper, ci_small.value().mean);
  EXPECT_LT(ci_large.value().upper - ci_large.value().lower,
            ci_small.value().upper - ci_small.value().lower);
  EXPECT_NEAR(ci_large.value().mean, 5.0, 0.15);
}

TEST(BootstrapTest, DegenerateSingleValue) {
  auto ci = eval::BootstrapMeanCi({3.5}, 0.05, 100, 3);
  ASSERT_TRUE(ci.ok());
  EXPECT_DOUBLE_EQ(ci.value().mean, 3.5);
  EXPECT_DOUBLE_EQ(ci.value().lower, 3.5);
  EXPECT_DOUBLE_EQ(ci.value().upper, 3.5);
}

TEST(BootstrapTest, RejectsEmptyInput) {
  EXPECT_FALSE(eval::BootstrapMeanCi({}, 0.05, 100, 4).ok());
}

}  // namespace
}  // namespace qcluster
