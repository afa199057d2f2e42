#include "core/classifier.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/merging.h"
#include "stats/distributions.h"

namespace qcluster::core {
namespace {

using linalg::Vector;

std::vector<Cluster> TwoGaussianClusters(Rng& rng, double separation,
                                         int points_each = 40) {
  std::vector<Cluster> clusters;
  Cluster a(2), b(2);
  for (int i = 0; i < points_each; ++i) {
    a.Add({rng.Gaussian(), rng.Gaussian()}, 1.0);
    b.Add({separation + rng.Gaussian(), rng.Gaussian()}, 1.0);
  }
  clusters.push_back(std::move(a));
  clusters.push_back(std::move(b));
  return clusters;
}

TEST(ClassifierTest, ScoresFavorNearCluster) {
  Rng rng(111);
  const std::vector<Cluster> clusters = TwoGaussianClusters(rng, 10.0);
  const ClassifierOptions opt;
  const std::vector<double> near_a =
      ClassificationScores(clusters, {0.0, 0.0}, opt);
  EXPECT_GT(near_a[0], near_a[1]);
  const std::vector<double> near_b =
      ClassificationScores(clusters, {10.0, 0.0}, opt);
  EXPECT_GT(near_b[1], near_b[0]);
}

TEST(ClassifierTest, PriorWeightBreaksTies) {
  // Two singleton clusters equidistant from the probe; the heavier cluster
  // must win through the ln(w_i) prior in Eq. 10.
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::FromPoint({-1.0, 0.0}, 1.0));
  clusters.push_back(Cluster::FromPoint({1.0, 0.0}, 5.0));
  const ClassifierOptions opt;
  const std::vector<double> scores =
      ClassificationScores(clusters, {0.0, 0.0}, opt);
  EXPECT_GT(scores[1], scores[0]);
}

TEST(ClassifierTest, ClassifyAssignsInsideRadius) {
  Rng rng(112);
  const std::vector<Cluster> clusters = TwoGaussianClusters(rng, 10.0);
  const ClassifierOptions opt;
  const ClassificationDecision d = Classify(clusters, {0.2, -0.1}, opt);
  EXPECT_EQ(d.cluster, 0);
  EXPECT_LT(d.radius_d2, d.radius);
}

TEST(ClassifierTest, ClassifyRejectsOutlier) {
  Rng rng(113);
  const std::vector<Cluster> clusters = TwoGaussianClusters(rng, 10.0);
  const ClassifierOptions opt;
  // Far from both clusters: outside every effective radius.
  const ClassificationDecision d = Classify(clusters, {100.0, 100.0}, opt);
  EXPECT_EQ(d.cluster, -1);
  EXPECT_GT(d.radius_d2, d.radius);
}

TEST(ClassifierTest, RadiusIsChiSquaredUpperQuantile) {
  Rng rng(114);
  const std::vector<Cluster> clusters = TwoGaussianClusters(rng, 4.0);
  ClassifierOptions opt;
  opt.alpha = 0.01;
  const ClassificationDecision d = Classify(clusters, {0.0, 0.0}, opt);
  EXPECT_NEAR(d.radius, stats::ChiSquaredUpperQuantile(0.01, 2), 1e-9);
}

TEST(ClassifierTest, SmallerAlphaAcceptsMorePoints) {
  // Lemma 1: as alpha decreases the effective radius grows.
  Rng rng(115);
  const std::vector<Cluster> clusters = TwoGaussianClusters(rng, 6.0);
  const Vector probe{2.4, 0.0};  // Borderline point.
  ClassifierOptions strict;
  strict.alpha = 0.5;
  ClassifierOptions lenient;
  lenient.alpha = 1e-4;
  const ClassificationDecision ds = Classify(clusters, probe, strict);
  const ClassificationDecision dl = Classify(clusters, probe, lenient);
  EXPECT_GT(dl.radius, ds.radius);
  // If the strict test accepted, the lenient one must as well.
  if (ds.cluster >= 0) {
    EXPECT_GE(dl.cluster, 0);
  }
}

TEST(ClassifyBatchTest, StartsFirstClusterWhenEmpty) {
  std::vector<Cluster> clusters;
  const ClassifierOptions opt;
  const auto decisions =
      ClassifyBatch(clusters, {{1.0, 1.0}}, {2.0}, opt);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(decisions[0].cluster, 0);
  EXPECT_DOUBLE_EQ(clusters[0].weight(), 2.0);
}

TEST(ClassifyBatchTest, GroupsPointsAtTheDataScale) {
  // With min_variance matched to the data scale, a clump classifies into
  // few clusters and a distant point must open a new one.
  Rng rng(116);
  std::vector<Cluster> clusters;
  ClassifierOptions opt;
  opt.min_variance = 0.01;  // Matches the clump's 0.1 stddev.
  std::vector<Vector> clump;
  std::vector<double> scores;
  for (int i = 0; i < 20; ++i) {
    clump.push_back({0.1 * rng.Gaussian(), 0.1 * rng.Gaussian()});
    scores.push_back(1.0);
  }
  ClassifyBatch(clusters, clump, scores, opt);
  const std::size_t after_clump = clusters.size();
  EXPECT_LE(after_clump, 5u);

  // A far-away point must open a new cluster.
  ClassifyBatch(clusters, {{50.0, 50.0}}, {1.0}, opt);
  EXPECT_EQ(clusters.size(), after_clump + 1);
}

TEST(ClassifyBatchTest, TinyFloorSplitsButMergingRecovers) {
  // With a floor far below the data scale, fresh singleton clusters reject
  // their neighbors (the radius check is too strict) — the merging stage
  // (Algorithm 3) is what consolidates them, matching the paper's
  // classification-then-merging pipeline.
  Rng rng(117);
  std::vector<Cluster> clusters;
  ClassifierOptions opt;  // Default tiny min_variance.
  std::vector<Vector> clump;
  std::vector<double> scores;
  for (int i = 0; i < 20; ++i) {
    clump.push_back({0.1 * rng.Gaussian(), 0.1 * rng.Gaussian()});
    scores.push_back(1.0);
  }
  ClassifyBatch(clusters, clump, scores, opt);
  EXPECT_GT(clusters.size(), 3u);  // Over-fragmented, as expected.

  MergeOptions merge;
  merge.max_clusters = 3;
  MergeClusters(clusters, merge);
  EXPECT_LE(clusters.size(), 3u);
}

TEST(ClassifyBatchTest, DecisionsAlignWithClusterMembership) {
  Rng rng(117);
  std::vector<Cluster> clusters = TwoGaussianClusters(rng, 12.0);
  const std::size_t size_a = static_cast<std::size_t>(clusters[0].size());
  const ClassifierOptions opt;
  const auto decisions = ClassifyBatch(clusters, {{0.1, 0.0}}, {1.0}, opt);
  EXPECT_EQ(decisions[0].cluster, 0);
  EXPECT_EQ(static_cast<std::size_t>(clusters[0].size()), size_a + 1);
}

TEST(ClassifyBatchTest, RejectsNonPositiveScores) {
  std::vector<Cluster> clusters;
  const ClassifierOptions opt;
  std::vector<Vector> pts{{1.0}};
  std::vector<double> scores{0.0};
  EXPECT_DEATH(ClassifyBatch(clusters, pts, scores, opt), "scores");
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ClassifyBatchTest, DecisionsMatchPerPointClassify) {
  // The batch inverts χ²_p(α) once; replaying it point by point through
  // Classify, which inverts it every time, must give the same bits.
  for (const bool individual : {false, true}) {
    for (const stats::CovarianceScheme scheme :
         {stats::CovarianceScheme::kDiagonal,
          stats::CovarianceScheme::kInverse}) {
      Rng rng(118);
      const std::vector<Cluster> start = TwoGaussianClusters(rng, 6.0, 10);
      std::vector<Vector> points;
      std::vector<double> scores;
      for (int i = 0; i < 40; ++i) {
        points.push_back({rng.Uniform(-4.0, 10.0), rng.Uniform(-4.0, 4.0)});
        scores.push_back(rng.Uniform(0.5, 3.0));
      }
      ClassifierOptions opt;
      opt.scheme = scheme;
      opt.min_variance = 0.05;
      opt.use_individual_covariances = individual;
      SCOPED_TRACE(testing::Message() << "individual " << individual
                                      << " scheme "
                                      << static_cast<int>(scheme));

      std::vector<Cluster> batch = start;
      const std::vector<ClassificationDecision> decisions =
          ClassifyBatch(batch, points, scores, opt);
      ASSERT_EQ(decisions.size(), points.size());

      std::vector<Cluster> replay = start;
      int accepted = 0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        const ClassificationDecision want = Classify(replay, points[i], opt);
        const ClassificationDecision& got = decisions[i];
        EXPECT_EQ(got.cluster, want.cluster) << "point " << i;
        EXPECT_TRUE(SameBits(got.score, want.score)) << "point " << i;
        EXPECT_TRUE(SameBits(got.radius_d2, want.radius_d2)) << "point " << i;
        EXPECT_TRUE(SameBits(got.radius, want.radius)) << "point " << i;
        if (want.cluster >= 0) {
          replay[static_cast<std::size_t>(want.cluster)].Add(points[i],
                                                             scores[i]);
          ++accepted;
        } else {
          replay.push_back(Cluster::FromPoint(points[i], scores[i]));
        }
      }
      ASSERT_EQ(batch.size(), replay.size());
      // Both outcomes occur, so the radius decided something.
      EXPECT_GT(accepted, 0);
      EXPECT_LT(accepted, static_cast<int>(points.size()));
    }
  }
}

}  // namespace
}  // namespace qcluster::core
