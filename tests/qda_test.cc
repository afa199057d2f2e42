// Tests for the QDA classifier variant (individual covariances, Eq. 8's
// normal-density special case).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/classifier.h"

namespace qcluster {
namespace {

using core::ClassifierOptions;
using core::Cluster;
using linalg::Vector;

Cluster MakeCluster(Rng& rng, const Vector& center, double spread, int n) {
  Cluster c(static_cast<int>(center.size()));
  for (int i = 0; i < n; ++i) {
    c.Add(linalg::Add(center,
                      linalg::Scale(
                          rng.GaussianVector(static_cast<int>(center.size())),
                          spread)),
          1.0);
  }
  return c;
}

TEST(QdaClassifierTest, AgreesWithLdaOnEqualCovariances) {
  Rng rng(313);
  std::vector<Cluster> clusters;
  clusters.push_back(MakeCluster(rng, {0, 0}, 1.0, 50));
  clusters.push_back(MakeCluster(rng, {8, 0}, 1.0, 50));
  ClassifierOptions lda;
  ClassifierOptions qda = lda;
  qda.use_individual_covariances = true;
  for (int t = 0; t < 20; ++t) {
    Vector probe = rng.GaussianVector(2);
    probe[0] += rng.Uniform(0.0, 8.0);
    const auto s_lda = ClassificationScores(clusters, probe, lda);
    const auto s_qda = ClassificationScores(clusters, probe, qda);
    EXPECT_EQ(s_lda[0] > s_lda[1], s_qda[0] > s_qda[1]);
  }
}

TEST(QdaClassifierTest, RespectsClusterSpreadWhereLdaCannot) {
  // A tight and a wide cluster with the same center distance to the probe:
  // QDA must prefer the wide cluster (the probe is typical for it,
  // atypical for the tight one); LDA's shared pooled metric cannot see
  // the difference.
  Rng rng(314);
  std::vector<Cluster> clusters;
  clusters.push_back(MakeCluster(rng, {-5, 0}, 0.2, 60));  // Tight.
  clusters.push_back(MakeCluster(rng, {5, 0}, 3.0, 60));   // Wide.
  ClassifierOptions qda;
  qda.use_individual_covariances = true;
  const Vector probe{0.0, 0.0};  // Equidistant from both centers.
  const auto scores = core::ClassificationScores(clusters, probe, qda);
  EXPECT_GT(scores[1], scores[0]);
}

TEST(QdaClassifierTest, LogDetPenalizesBloatedClusters) {
  // At a cluster's own centroid the quadratic term vanishes; the −½ln|S|
  // term then favors the compact cluster for points near *its* centroid.
  Rng rng(315);
  std::vector<Cluster> clusters;
  clusters.push_back(MakeCluster(rng, {0, 0}, 0.2, 60));
  clusters.push_back(MakeCluster(rng, {0.5, 0}, 6.0, 60));  // Overlapping, wide.
  ClassifierOptions qda;
  qda.use_individual_covariances = true;
  const auto scores =
      core::ClassificationScores(clusters, {0.0, 0.0}, qda);
  EXPECT_GT(scores[0], scores[1]);
}

TEST(QdaClassifierTest, ClassifyBatchWorksWithQda) {
  Rng rng(316);
  std::vector<Cluster> clusters;
  ClassifierOptions qda;
  qda.use_individual_covariances = true;
  qda.min_variance = 0.05;
  std::vector<Vector> points;
  std::vector<double> scores;
  for (int i = 0; i < 15; ++i) {
    points.push_back(linalg::Scale(rng.GaussianVector(2), 0.3));
    scores.push_back(1.0);
  }
  core::ClassifyBatch(clusters, points, scores, qda);
  EXPECT_GE(clusters.size(), 1u);
  int total = 0;
  for (const Cluster& c : clusters) total += c.size();
  EXPECT_EQ(total, 15);
}

}  // namespace
}  // namespace qcluster
