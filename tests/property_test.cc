// Randomized property tests across module boundaries: invariants that must
// hold for arbitrary inputs, checked over many seeded draws.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/disjunctive_distance.h"
#include "core/engine.h"
#include "core/merging.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"
#include "stats/weighted_stats.h"

namespace qcluster {
namespace {

using core::Cluster;
using linalg::Vector;

class SeededPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededPropertyTest, MergedStatsAssociative) {
  // (A ∪ B) ∪ C == A ∪ (B ∪ C) for cluster summaries.
  Rng rng(GetParam());
  auto sample = [&rng](int n) {
    std::vector<Vector> pts;
    std::vector<double> w;
    for (int i = 0; i < n; ++i) {
      pts.push_back(rng.GaussianVector(3));
      w.push_back(rng.Uniform(0.5, 3.0));
    }
    return stats::WeightedStats::FromPoints(pts, w);
  };
  const auto a = sample(3 + static_cast<int>(rng.UniformInt(10)));
  const auto b = sample(3 + static_cast<int>(rng.UniformInt(10)));
  const auto c = sample(3 + static_cast<int>(rng.UniformInt(10)));
  const auto left =
      stats::WeightedStats::Merged(stats::WeightedStats::Merged(a, b), c);
  const auto right =
      stats::WeightedStats::Merged(a, stats::WeightedStats::Merged(b, c));
  EXPECT_NEAR(left.weight(), right.weight(), 1e-9);
  EXPECT_TRUE(linalg::AllClose(left.mean(), right.mean(), 1e-9));
  EXPECT_TRUE(linalg::AllClose(left.scatter(), right.scatter(), 1e-6));
}

TEST_P(SeededPropertyTest, AllIndexesAgreeOnDisjunctiveQueries) {
  Rng rng(GetParam() + 1);
  std::vector<Vector> pts;
  const int n = 100 + static_cast<int>(rng.UniformInt(400));
  for (int i = 0; i < n; ++i) pts.push_back(rng.GaussianVector(3));
  const auto block = linalg::FlatBlock::FromPoints(pts);
  const index::LinearScanIndex scan(block.view());
  const index::BrTree tree(&block);

  std::vector<Cluster> clusters;
  const int g = 1 + static_cast<int>(rng.UniformInt(4));
  for (int c = 0; c < g; ++c) {
    Cluster cluster(3);
    const int members = 1 + static_cast<int>(rng.UniformInt(6));
    for (int i = 0; i < members; ++i) {
      cluster.Add(rng.GaussianVector(3), rng.Uniform(0.5, 3.0));
    }
    clusters.push_back(std::move(cluster));
  }
  const core::DisjunctiveDistance dist(
      clusters, stats::CovarianceScheme::kDiagonal, 0.1);
  const int k = 1 + static_cast<int>(rng.UniformInt(30));
  const auto expected = scan.Search(dist, k);
  EXPECT_EQ(tree.Search(dist, k), expected);
}

TEST_P(SeededPropertyTest, MergingAlwaysTerminatesAtOrBelowCap) {
  Rng rng(GetParam() + 2);
  std::vector<Cluster> clusters;
  const int g = 2 + static_cast<int>(rng.UniformInt(12));
  for (int c = 0; c < g; ++c) {
    Cluster cluster(2);
    const int members = 1 + static_cast<int>(rng.UniformInt(10));
    Vector center = linalg::Scale(rng.GaussianVector(2), rng.Uniform(0, 20));
    for (int i = 0; i < members; ++i) {
      cluster.Add(linalg::Add(center, rng.GaussianVector(2)), 1.0);
    }
    clusters.push_back(std::move(cluster));
  }
  core::MergeOptions opt;
  opt.max_clusters = 1 + static_cast<int>(rng.UniformInt(4));
  const int total_points = [&clusters] {
    int sum = 0;
    for (const Cluster& c : clusters) sum += c.size();
    return sum;
  }();
  core::MergeClusters(clusters, opt);
  EXPECT_LE(static_cast<int>(clusters.size()), opt.max_clusters);
  // No point lost or duplicated.
  int after = 0;
  for (const Cluster& c : clusters) after += c.size();
  EXPECT_EQ(after, total_points);
}

TEST_P(SeededPropertyTest, MergingIsIdempotent) {
  Rng rng(GetParam() + 3);
  std::vector<Cluster> clusters;
  for (int c = 0; c < 6; ++c) {
    Cluster cluster(2);
    Vector center = linalg::Scale(rng.GaussianVector(2), 10.0);
    for (int i = 0; i < 15; ++i) {
      cluster.Add(linalg::Add(center, rng.GaussianVector(2)), 1.0);
    }
    clusters.push_back(std::move(cluster));
  }
  core::MergeOptions opt;
  opt.max_clusters = 8;
  core::MergeClusters(clusters, opt);
  const std::size_t after_first = clusters.size();
  const core::MergeReport second = core::MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), after_first);
  EXPECT_EQ(second.merges, 0);
}

TEST_P(SeededPropertyTest, EngineSessionsAreDeterministic) {
  Rng rng(GetParam() + 4);
  std::vector<Vector> pts;
  for (int i = 0; i < 300; ++i) pts.push_back(rng.GaussianVector(2));
  const auto block = linalg::FlatBlock::FromPoints(pts);
  const index::BrTree tree(&block);
  core::QclusterOptions opt;
  opt.k = 40;

  auto run = [&] {
    core::QclusterEngine engine(&block, &tree, opt);
    auto result = engine.InitialQuery(pts[0]);
    for (int it = 0; it < 2; ++it) {
      std::vector<core::RelevantItem> marked;
      for (std::size_t i = 0; i < result.size(); i += 3) {
        marked.push_back({result[i].id, 1.0 + static_cast<double>(i % 2)});
      }
      result = engine.Feedback(marked);
    }
    return result;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(SeededPropertyTest, DisjunctiveDistanceNonNegativeAndZeroAtCentroids) {
  Rng rng(GetParam() + 5);
  std::vector<Cluster> clusters;
  const int g = 1 + static_cast<int>(rng.UniformInt(5));
  for (int c = 0; c < g; ++c) {
    clusters.push_back(Cluster::FromPoint(rng.GaussianVector(3),
                                          rng.Uniform(0.5, 5.0)));
  }
  const core::DisjunctiveDistance dist(
      clusters, stats::CovarianceScheme::kDiagonal, 1.0);
  for (const Cluster& c : clusters) {
    EXPECT_DOUBLE_EQ(dist.Distance(c.centroid()), 0.0);
  }
  for (int t = 0; t < 50; ++t) {
    EXPECT_GE(dist.Distance(rng.GaussianVector(3)), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace qcluster
