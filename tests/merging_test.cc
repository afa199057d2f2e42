#include "core/merging.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "stats/distributions.h"
#include "stats/hotelling.h"

namespace qcluster::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------------------
// Reference: Algorithm 3 with the full decision quantity of every pair at
// every step. MergeClusters ranks by T² alone and computes c² only for the
// pair a step acts on; the two must agree bit for bit on finite input.

/// T² (Eq. 14) and the critical distance c² (Eq. 16) of one pair. When the
/// pair is too small for the F distribution (m_i + m_j ≤ p + 1), c²
/// degrades to the asymptotic χ²_p(α) threshold.
struct MergeCandidate {
  int i = 0;
  int j = 0;
  double t2 = 0.0;
  double c2 = 0.0;
  bool mergeable() const { return t2 <= c2; }
};

MergeCandidate EvaluateMergePair(const std::vector<Cluster>& clusters, int i,
                                 int j, double alpha,
                                 const MergeOptions& options) {
  const Cluster& a = clusters[static_cast<std::size_t>(i)];
  const Cluster& b = clusters[static_cast<std::size_t>(j)];
  const int dim = a.dim();
  Matrix pooled = stats::PooledCovariancePair(a.stats(), b.stats());
  for (int d = 0; d < dim; ++d) {
    if (pooled(d, d) < options.min_variance) {
      pooled(d, d) = options.min_variance;
    }
  }
  const Matrix pooled_inverse = stats::InvertCovariance(pooled, options.scheme);
  MergeCandidate candidate;
  candidate.i = i;
  candidate.j = j;
  candidate.t2 =
      stats::HotellingT2WithInverse(a.stats(), b.stats(), pooled_inverse);
  Result<double> c2 = stats::HotellingCriticalDistance(
      a.weight() + b.weight(), dim, alpha);
  candidate.c2 = c2.ok() ? c2.value()
                         : stats::ChiSquaredUpperQuantile(
                               alpha, static_cast<double>(dim));
  return candidate;
}

/// Steps of the reference whose acting pair took the χ² fallback, so the
/// sweeps can show they exercised it.
int g_reference_fallback_steps = 0;

MergeReport ReferenceMergeClusters(std::vector<Cluster>& clusters,
                                   const MergeOptions& options) {
  constexpr double kAlphaRelax = 0.1;
  constexpr double kMinAlpha = 1e-9;
  MergeReport report;
  double alpha = options.alpha;
  report.final_alpha = alpha;
  auto merge = [&clusters](const MergeCandidate& c) {
    clusters[static_cast<std::size_t>(c.i)] =
        Cluster::Merged(clusters[static_cast<std::size_t>(c.i)],
                        clusters[static_cast<std::size_t>(c.j)]);
    clusters.erase(clusters.begin() + c.j);
  };
  while (clusters.size() > 1) {
    MergeCandidate best;
    best.t2 = std::numeric_limits<double>::infinity();
    best.c2 = -std::numeric_limits<double>::infinity();
    const int g = static_cast<int>(clusters.size());
    for (int i = 0; i < g; ++i) {
      for (int j = i + 1; j < g; ++j) {
        const MergeCandidate c =
            EvaluateMergePair(clusters, i, j, alpha, options);
        if (c.t2 < best.t2) best = c;
      }
    }
    const Cluster& a = clusters[static_cast<std::size_t>(best.i)];
    if (a.weight() + clusters[static_cast<std::size_t>(best.j)].weight() <=
        a.dim() + 1.0) {
      ++g_reference_fallback_steps;
    }
    const bool over_cap = g > options.max_clusters;
    if (best.mergeable()) {
      merge(best);
      ++report.merges;
      continue;
    }
    if (!over_cap) break;
    if (alpha > kMinAlpha) {
      alpha *= kAlphaRelax;
      if (alpha < kMinAlpha) alpha = kMinAlpha;
      report.final_alpha = alpha;
      continue;
    }
    merge(best);
    ++report.merges;
    ++report.forced_merges;
  }
  return report;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Asserts that two merge passes left the same clusters (n, weight, mean
/// and scatter, by bits) and the same report.
void ExpectSamePass(const std::vector<Cluster>& got, const MergeReport& got_r,
                    const std::vector<Cluster>& want,
                    const MergeReport& want_r) {
  EXPECT_EQ(got_r.merges, want_r.merges);
  EXPECT_EQ(got_r.forced_merges, want_r.forced_merges);
  EXPECT_TRUE(SameBits(got_r.final_alpha, want_r.final_alpha))
      << got_r.final_alpha << " vs " << want_r.final_alpha;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    const stats::WeightedStats& x = got[c].stats();
    const stats::WeightedStats& y = want[c].stats();
    EXPECT_EQ(x.n(), y.n()) << "cluster " << c;
    EXPECT_TRUE(SameBits(x.weight(), y.weight())) << "cluster " << c;
    ASSERT_EQ(x.mean().size(), y.mean().size());
    for (std::size_t d = 0; d < x.mean().size(); ++d) {
      EXPECT_TRUE(SameBits(x.mean()[d], y.mean()[d]))
          << "cluster " << c << " mean[" << d << "]";
    }
    const std::size_t cells =
        static_cast<std::size_t>(x.scatter().rows() * x.scatter().cols());
    ASSERT_EQ(cells, static_cast<std::size_t>(y.scatter().rows() *
                                              y.scatter().cols()));
    EXPECT_EQ(std::memcmp(x.scatter().data(), y.scatter().data(),
                          cells * sizeof(double)),
              0)
        << "cluster " << c << " scatter";
  }
}

/// Runs MergeClusters and the reference on copies of `clusters` and
/// compares them; returns MergeClusters' report.
MergeReport ExpectMatchesReference(const std::vector<Cluster>& clusters,
                                   const MergeOptions& opt) {
  std::vector<Cluster> got = clusters;
  std::vector<Cluster> want = clusters;
  const MergeReport got_r = MergeClusters(got, opt);
  const MergeReport want_r = ReferenceMergeClusters(want, opt);
  ExpectSamePass(got, got_r, want, want_r);
  return got_r;
}

Cluster GaussianCluster(Rng& rng, const Vector& mean, int n) {
  Cluster c(static_cast<int>(mean.size()));
  for (int i = 0; i < n; ++i) {
    Vector p = rng.GaussianVector(static_cast<int>(mean.size()));
    linalg::Axpy(1.0, mean, p);
    c.Add(p, 1.0);
  }
  return c;
}

TEST(MergingTest, EvaluatePairReportsT2AndC2) {
  Rng rng(121);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  const MergeOptions opt;
  const MergeCandidate c = EvaluateMergePair(clusters, 0, 1, 0.05, opt);
  EXPECT_GE(c.t2, 0.0);
  EXPECT_GT(c.c2, 0.0);
  EXPECT_TRUE(c.mergeable());  // Same-mean clusters merge at alpha 0.05.
}

TEST(MergingTest, SameMeanClustersMerge) {
  Rng rng(122);
  std::vector<Cluster> clusters;
  for (int i = 0; i < 4; ++i) {
    clusters.push_back(GaussianCluster(rng, {0, 0}, 25));
  }
  MergeOptions opt;
  opt.max_clusters = 10;  // The cap must not be the reason for merging.
  const MergeReport report = MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 1u);
  EXPECT_EQ(report.merges, 3);
  EXPECT_EQ(report.forced_merges, 0);
}

TEST(MergingTest, SeparatedClustersStaySeparate) {
  Rng rng(123);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {12, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {0, 12}, 30));
  MergeOptions opt;
  opt.max_clusters = 5;
  MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(MergingTest, CapForcesMerges) {
  Rng rng(124);
  std::vector<Cluster> clusters;
  // Five well-separated clusters but a cap of 2.
  for (int i = 0; i < 5; ++i) {
    clusters.push_back(
        GaussianCluster(rng, {20.0 * i, 0.0}, 20));
  }
  MergeOptions opt;
  opt.max_clusters = 2;
  const MergeReport report = MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 2u);
  EXPECT_GE(report.merges, 3);
}

TEST(MergingTest, CapMergesClosestFirst) {
  Rng rng(125);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 20));
  clusters.push_back(GaussianCluster(rng, {8, 0}, 20));   // Close-ish pair.
  clusters.push_back(GaussianCluster(rng, {100, 0}, 20)); // Far away.
  MergeOptions opt;
  opt.max_clusters = 2;
  MergeClusters(clusters, opt);
  ASSERT_EQ(clusters.size(), 2u);
  // The far cluster must have survived unmerged: one centroid near 100.
  const bool far_survives =
      std::abs(clusters[0].centroid()[0] - 100.0) < 2.0 ||
      std::abs(clusters[1].centroid()[0] - 100.0) < 2.0;
  EXPECT_TRUE(far_survives);
}

TEST(MergingTest, SingletonClustersUseChiSquaredFallback) {
  // Fresh singleton clusters (m_i + m_j <= p + 1) must still be comparable.
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::FromPoint({0.0, 0.0, 0.0}, 1.0));
  clusters.push_back(Cluster::FromPoint({0.1, 0.0, 0.0}, 1.0));
  MergeOptions opt;
  opt.max_clusters = 5;
  opt.min_variance = 1.0;  // Coarse metric: the points are the same place.
  MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 1u);
}

TEST(MergingTest, MergedStatisticsFollowEq11To13) {
  Rng rng(126);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {0.05, 0}, 30));
  const double total_weight = clusters[0].weight() + clusters[1].weight();
  const Vector expected_mean = linalg::Add(
      linalg::Scale(clusters[0].centroid(),
                    clusters[0].weight() / total_weight),
      linalg::Scale(clusters[1].centroid(),
                    clusters[1].weight() / total_weight));
  MergeOptions opt;
  MergeClusters(clusters, opt);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_DOUBLE_EQ(clusters[0].weight(), total_weight);   // Eq. 11.
  EXPECT_TRUE(linalg::AllClose(clusters[0].centroid(), expected_mean, 1e-9));
}

TEST(MergingTest, ReportsFinalAlphaWhenRelaxed) {
  Rng rng(127);
  std::vector<Cluster> clusters;
  for (int i = 0; i < 4; ++i) {
    clusters.push_back(GaussianCluster(rng, {30.0 * i, 0.0}, 20));
  }
  MergeOptions opt;
  opt.max_clusters = 1;
  const MergeReport report = MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 1u);
  EXPECT_LT(report.final_alpha, opt.alpha);  // Relaxation happened.
}

TEST(MergingTest, NoMergeBelowCapWhenDistinct) {
  Rng rng(128);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {15, 0}, 30));
  MergeOptions opt;
  opt.max_clusters = 5;
  const MergeReport report = MergeClusters(clusters, opt);
  EXPECT_EQ(report.merges, 0);
  EXPECT_EQ(clusters.size(), 2u);
}

/// g clusters of 1–8 points in `dim` dimensions around four modes, so
/// some pairs share a mean and some do not; scores vary the weights.
std::vector<Cluster> SeededClusters(Rng& rng, int g, int dim) {
  std::vector<Vector> modes;
  for (int m = 0; m < 4; ++m) {
    Vector mode = rng.GaussianVector(dim);
    for (double& v : mode) v *= 6.0;
    modes.push_back(std::move(mode));
  }
  std::vector<Cluster> clusters;
  for (int c = 0; c < g; ++c) {
    const Vector& mode = modes[rng.UniformInt(modes.size())];
    Cluster cluster(dim);
    const int n = 1 + static_cast<int>(rng.UniformInt(8));
    for (int k = 0; k < n; ++k) {
      Vector x = rng.GaussianVector(dim);
      linalg::Axpy(1.0, mode, x);
      cluster.Add(x, rng.Uniform(0.5, 3.0));
    }
    clusters.push_back(std::move(cluster));
  }
  return clusters;
}

TEST(MergingTest, MatchesEveryPairReferenceBitForBit) {
  int relaxed = 0;
  int forced = 0;
  int passes = 0;
  g_reference_fallback_steps = 0;
  // At p = 16 every T² inverts a 16×16 pooled covariance, and under the
  // Debug audits eigensolves it three times, so that sweep stops at g = 8.
  for (const auto& [dim, max_g] :
       {std::pair{3, 25}, std::pair{4, 25}, std::pair{16, 8}}) {
    for (const stats::CovarianceScheme scheme :
         {stats::CovarianceScheme::kDiagonal,
          stats::CovarianceScheme::kInverse}) {
      for (int g = 2; g <= max_g; ++g) {
        Rng rng(0x5eed0000u + 1000u * static_cast<unsigned>(dim) +
                10u * static_cast<unsigned>(g) +
                static_cast<unsigned>(scheme));
        const std::vector<Cluster> clusters = SeededClusters(rng, g, dim);
        // The cap cycles with g through forcing down to one cluster, a
        // partial cap and none, so each regime sees small and large g.
        const int caps[] = {1, 2 + g / 3, g};
        MergeOptions opt;
        opt.scheme = scheme;
        opt.max_clusters = caps[g % 3];
        opt.min_variance = g % 2 == 0 ? 1e-4 : 0.5;
        SCOPED_TRACE(testing::Message()
                     << "dim " << dim << " g " << g << " cap "
                     << opt.max_clusters << " scheme "
                     << static_cast<int>(scheme));
        const MergeReport r = ExpectMatchesReference(clusters, opt);
        ++passes;
        if (r.final_alpha < opt.alpha) ++relaxed;
        if (r.forced_merges > 0) ++forced;
        // Exact copies of every third cluster, appended: each copy's T² with
        // its original is 0, and its T² with any other cluster ties the
        // original's exactly, so ties go to the earlier pair throughout.
        std::vector<Cluster> duplicated = clusters;
        for (std::size_t c = 0; c < clusters.size(); c += 3) {
          duplicated.push_back(clusters[c]);
        }
        SCOPED_TRACE("with duplicates");
        ExpectMatchesReference(duplicated, opt);
      }
    }
  }
  // The sweep must reach every branch the passes can take.
  EXPECT_GT(relaxed, passes / 10);
  EXPECT_GT(forced, 0);
  EXPECT_GT(g_reference_fallback_steps, 0);
}

TEST(MergingTest, SingletonChiSquaredFallbackMatchesReference) {
  // Unit-weight singletons: every pair has m_i + m_j = 2 ≤ p + 1.
  Rng rng(129);
  for (const int dim : {3, 4, 16}) {
    std::vector<Cluster> clusters;
    for (int c = 0; c < 12; ++c) {
      Vector x = rng.GaussianVector(dim);
      if (c % 3 == 0) linalg::Axpy(1.0, Vector(dim, 5.0), x);
      clusters.push_back(Cluster::FromPoint(x, 1.0));
    }
    for (const int cap : {1, 4, 12}) {
      for (const double floor : {1e-4, 1.0}) {
        MergeOptions opt;
        opt.max_clusters = cap;
        opt.min_variance = floor;
        SCOPED_TRACE(testing::Message()
                     << "dim " << dim << " cap " << cap << " floor " << floor);
        g_reference_fallback_steps = 0;
        ExpectMatchesReference(clusters, opt);
        EXPECT_GT(g_reference_fallback_steps, 0);
      }
    }
  }
}

TEST(MergingTest, RelaxationAndForcingMatchReference) {
  // Far-apart, tight clusters with a cap of 1: every merge needs α relaxed,
  // and the farthest ones are forced once α bottoms out at 1e-9.
  Rng rng(130);
  for (const stats::CovarianceScheme scheme :
       {stats::CovarianceScheme::kDiagonal,
        stats::CovarianceScheme::kInverse}) {
    std::vector<Cluster> clusters;
    for (int c = 0; c < 6; ++c) {
      clusters.push_back(GaussianCluster(
          rng, {1e3 * c, -2e3 * c, 5e2 * (c % 2)}, 10));
    }
    MergeOptions opt;
    opt.scheme = scheme;
    opt.max_clusters = 1;
    const MergeReport r = ExpectMatchesReference(clusters, opt);
    EXPECT_EQ(r.merges, 5);
    EXPECT_GT(r.forced_merges, 0);
    EXPECT_EQ(r.final_alpha, 1e-9);
  }
}

TEST(MergingTest, TiedT2MergesTheEarlierPair) {
  // S holds ±p, so its mean is exactly 0; C mirrors B's points through it,
  // so C's mean is −(B's) and its scatter B's, bit for bit. T²(S, B) and
  // T²(S, C) are then the same double, both below T²(B, C), and the earlier
  // pair (S, B) must merge. Duplicate clusters cannot pin this: a copy
  // merges with its original first, whichever tied pair comes first.
  Rng rng(132);
  for (const stats::CovarianceScheme scheme :
       {stats::CovarianceScheme::kDiagonal,
        stats::CovarianceScheme::kInverse}) {
    const Vector p = rng.GaussianVector(3);
    Cluster s = Cluster::FromPoint(p, 1.0);
    s.Add(linalg::Scale(p, -1.0), 1.0);
    Cluster b(3);
    Cluster c(3);
    // B and C are tight and far apart, so once S has taken B the pass
    // stops at the cap with C apart.
    for (int k = 0; k < 20; ++k) {
      const Vector x = linalg::Add(linalg::Scale(rng.GaussianVector(3), 0.1),
                                   {40.0, 10.0, -20.0});
      b.Add(x, 1.0);
      c.Add(linalg::Scale(x, -1.0), 1.0);
    }
    MergeOptions opt;
    opt.scheme = scheme;
    opt.max_clusters = 2;
    const std::vector<Cluster> clusters = {s, b, c};
    ExpectMatchesReference(clusters, opt);
    std::vector<Cluster> got = clusters;
    EXPECT_EQ(MergeClusters(got, opt).merges, 1);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].size(), 22);  // S merged with B, not with C.
    EXPECT_GT(got[0].centroid()[0], 0.0);
    EXPECT_EQ(got[1].centroid(), c.centroid());
  }
}

TEST(MergingTest, ScoresEachPairOnce) {
  // 100 singletons in three groups 1e4 apart, with a cap of 3: the pass
  // merges within the groups and stops at the three, whose T² no α
  // accepts. The table scores C(100, 2) pairs once, then the merged
  // cluster's g − 2 pairs after each merge from g = 100 … 4:
  // 4,950 + 4,850 = 9,800 T².
  Rng rng(131);
  std::vector<Cluster> clusters;
  for (int c = 0; c < 100; ++c) {
    Vector x = rng.GaussianVector(4);
    x[0] += 1e4 * (c % 3);
    clusters.push_back(Cluster::FromPoint(x, 1.0));
  }
  MergeOptions opt;
  opt.max_clusters = 3;
  MetricsRegistry::Global().Reset();
  SetMetricsEnabled(true);
  const MergeReport r = MergeClusters(clusters, opt);
  SetMetricsEnabled(false);
  EXPECT_EQ(r.merges, 97);
  EXPECT_EQ(clusters.size(), 3u);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("merge.pair_scores"), 9800);
  MetricsRegistry::Global().Reset();
}

/// Five singletons of weights 1–5 whose every pairwise T² is NaN (a NaN
/// coordinate each) or +∞: cluster c alone is 1e150 in coordinate c, where
/// no cluster has spread, so its squared difference over the 1e-12 variance
/// floor overflows while every mean and scatter stays finite.
std::vector<Cluster> NonFiniteSingletons(bool nan) {
  constexpr int kCount = 5;
  std::vector<Cluster> clusters;
  for (int c = 0; c < kCount; ++c) {
    Vector x(kCount, 0.0);
    if (nan) {
      x[0] = std::numeric_limits<double>::quiet_NaN();
    } else {
      x[static_cast<std::size_t>(c)] = 1e150;
    }
    clusters.push_back(Cluster::FromPoint(x, 1.0 + c));
  }
  return clusters;
}

TEST(MergingTest, NonFiniteT2OverCapForcesTheFirstPair) {
  for (const bool nan : {true, false}) {
    SCOPED_TRACE(nan ? "all-NaN T²" : "all-+inf T²");
    std::vector<Cluster> clusters = NonFiniteSingletons(nan);
    MergeOptions opt;
    opt.min_variance = 1e-12;
    opt.max_clusters = 4;
    const MergeReport r = MergeClusters(clusters, opt);
    // No pair ranks below +inf, so the first pair stands in: α relaxes to
    // its floor and (0, 1) is forced.
    EXPECT_EQ(r.merges, 1);
    EXPECT_EQ(r.forced_merges, 1);
    EXPECT_EQ(r.final_alpha, 1e-9);
    ASSERT_EQ(clusters.size(), 4u);
    EXPECT_EQ(clusters[0].size(), 2);
    EXPECT_EQ(clusters[0].weight(), 1.0 + 2.0);
    for (int c = 1; c < 4; ++c) {
      EXPECT_EQ(clusters[static_cast<std::size_t>(c)].weight(), 2.0 + c);
    }

    // Down to a cap of 1 every step forces; within the cap nothing merges.
    std::vector<Cluster> all = NonFiniteSingletons(nan);
    opt.max_clusters = 1;
    const MergeReport down = MergeClusters(all, opt);
    EXPECT_EQ(all.size(), 1u);
    EXPECT_EQ(down.merges, 4);
    EXPECT_EQ(down.forced_merges, 4);
    std::vector<Cluster> within = NonFiniteSingletons(nan);
    opt.max_clusters = 5;
    EXPECT_EQ(MergeClusters(within, opt).merges, 0);
    EXPECT_EQ(within.size(), 5u);
  }
}

}  // namespace
}  // namespace qcluster::core
