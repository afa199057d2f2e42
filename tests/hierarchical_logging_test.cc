// Coverage for the hierarchical (centroid) clustering and the logging /
// bootstrap utilities.

#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/metrics.h"
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

/// The every-pair loop HierarchicalCluster replaced: every step re-scores
/// every pair of the current list, the smallest squared centroid distance
/// wins (ties to the earlier pair, NaN never), and (0, 1) stands in when no
/// distance is below +inf.
std::vector<Cluster> ReferenceHierarchicalCluster(
    const std::vector<Vector>& points, const std::vector<double>& scores,
    int target_clusters) {
  std::vector<Cluster> clusters;
  for (std::size_t i = 0; i < points.size(); ++i) {
    clusters.push_back(Cluster::FromPoint(points[i], scores[i]));
  }
  while (static_cast<int>(clusters.size()) > target_clusters) {
    std::size_t best_i = 0;
    std::size_t best_j = 1;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      for (std::size_t j = i + 1; j < clusters.size(); ++j) {
        const double d = linalg::SquaredDistance(clusters[i].centroid(),
                                                 clusters[j].centroid());
        if (d < best_d) {
          best_d = d;
          best_i = i;
          best_j = j;
        }
      }
    }
    clusters[best_i] = Cluster::Merged(clusters[best_i], clusters[best_j]);
    clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(best_j));
  }
  return clusters;
}

bool SameBits(const double* a, const double* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(double)) == 0;
}

/// Asserts the two lists hold the same clusters in the same order: n,
/// weight, mean, scatter and member points, by bits.
void ExpectSameClusters(const std::vector<Cluster>& got,
                        const std::vector<Cluster>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    const stats::WeightedStats& x = got[c].stats();
    const stats::WeightedStats& y = want[c].stats();
    EXPECT_EQ(x.n(), y.n()) << "cluster " << c;
    const double gw = x.weight();
    const double ww = y.weight();
    EXPECT_TRUE(SameBits(&gw, &ww, 1)) << "cluster " << c;
    ASSERT_EQ(x.mean().size(), y.mean().size());
    EXPECT_TRUE(SameBits(x.mean().data(), y.mean().data(), x.mean().size()))
        << "cluster " << c << " mean";
    EXPECT_TRUE(SameBits(x.scatter().data(), y.scatter().data(),
                         x.mean().size() * x.mean().size()))
        << "cluster " << c << " scatter";
    ASSERT_EQ(got[c].points().size(), want[c].points().size());
    for (std::size_t p = 0; p < got[c].points().size(); ++p) {
      EXPECT_TRUE(SameBits(got[c].points()[p].data(),
                           want[c].points()[p].data(), x.mean().size()))
          << "cluster " << c << " point " << p;
    }
    EXPECT_TRUE(SameBits(got[c].scores().data(), want[c].scores().data(),
                         got[c].scores().size()))
        << "cluster " << c << " scores";
  }
}

/// n points in `dim` dimensions for the bit-for-bit sweep. kind 0: Gaussian
/// around three modes with varied scores. kind 1: integer coordinates in
/// [0, 3) with every third point a copy of an earlier one and all scores
/// 1, so many pairs tie exactly. kind 2: as 0, with every fifth row holding
/// a NaN, +inf or -inf coordinate. kind 3: every row holds one, so no
/// distance is below +inf and (0, 1) stands in at every step.
void SweepInput(Rng& rng, int n, int dim, int kind, std::vector<Vector>* points,
                std::vector<double>* scores) {
  std::vector<Vector> modes;
  for (int m = 0; m < 3; ++m) {
    modes.push_back(linalg::Scale(rng.GaussianVector(dim), 5.0));
  }
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (int i = 0; i < n; ++i) {
    Vector x;
    double score = rng.Uniform(0.5, 3.0);
    if (kind == 1) {
      score = 1.0;
      if (i % 3 == 2) {
        x = (*points)[rng.UniformInt(points->size())];
      } else {
        for (int d = 0; d < dim; ++d) {
          x.push_back(static_cast<double>(rng.UniformInt(3)));
        }
      }
    } else {
      x = linalg::Add(rng.GaussianVector(dim),
                      modes[rng.UniformInt(modes.size())]);
      if ((kind == 2 && i % 5 == 1) || kind == 3) {
        x[rng.UniformInt(x.size())] = specials[rng.UniformInt(3)];
      }
    }
    points->push_back(std::move(x));
    scores->push_back(score);
  }
}

TEST(HierarchicalTest, MatchesEveryPairReferenceBitForBit) {
  int passes = 0;
  for (const int n : {1, 2, 3, 17, 100, 160}) {
    for (const int dim : {1, 3, 16, 32}) {
      for (int kind = 0; kind < 4; ++kind) {
        Rng rng(0x41e0000u + 1000u * static_cast<unsigned>(n) +
                10u * static_cast<unsigned>(dim) +
                static_cast<unsigned>(kind));
        std::vector<Vector> points;
        std::vector<double> scores;
        SweepInput(rng, n, dim, kind, &points, &scores);
        for (const int target : {1, 3, n}) {
          SCOPED_TRACE(testing::Message() << "n " << n << " dim " << dim
                                          << " kind " << kind << " target "
                                          << target);
          ExpectSameClusters(HierarchicalCluster(points, scores, target),
                             ReferenceHierarchicalCluster(points, scores,
                                                          target));
          ++passes;
        }
      }
    }
  }
  EXPECT_EQ(passes, 6 * 4 * 4 * 3);
}

TEST(HierarchicalTest, ScoresEachPairOnce) {
  // 100 points down to 3: C(100, 2) scores when the table is built, then
  // the merged cluster's g − 2 pairs after each merge from g = 100 … 4,
  // 4,950 + 4,850 = 9,800 (the every-pair loop scored 166,646).
  Rng rng(322);
  std::vector<Vector> pts;
  for (int i = 0; i < 100; ++i) pts.push_back(rng.GaussianVector(4));
  MetricsRegistry::Global().Reset();
  SetMetricsEnabled(true);
  const auto clusters =
      HierarchicalCluster(pts, std::vector<double>(pts.size(), 1.0), 3);
  const auto unchanged =
      HierarchicalCluster(pts, std::vector<double>(pts.size(), 1.0), 100);
  SetMetricsEnabled(false);
  EXPECT_EQ(clusters.size(), 3u);
  EXPECT_EQ(unchanged.size(), 100u);
  EXPECT_EQ(
      MetricsRegistry::Global().CounterValue("hierarchical.pair_scores"),
      9800);
  MetricsRegistry::Global().Reset();
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
