#include "stats/weighted_stats.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace qcluster::stats {
namespace {

using linalg::AllClose;
using linalg::Matrix;
using linalg::Vector;

TEST(WeightedStatsTest, EmptyStats) {
  const WeightedStats s(3);
  EXPECT_EQ(s.n(), 0);
  EXPECT_DOUBLE_EQ(s.weight(), 0.0);
  EXPECT_EQ(s.dim(), 3);
}

TEST(WeightedStatsTest, SinglePoint) {
  WeightedStats s(2);
  s.AddPoint({1.0, 2.0}, 3.0);
  EXPECT_EQ(s.n(), 1);
  EXPECT_DOUBLE_EQ(s.weight(), 3.0);
  EXPECT_TRUE(AllClose(s.mean(), Vector{1.0, 2.0}, 1e-12));
  EXPECT_NEAR(s.scatter().SquaredFrobeniusNorm(), 0.0, 1e-20);
}

TEST(WeightedStatsTest, UnweightedMeanAndScatter) {
  const WeightedStats s =
      WeightedStats::FromPoints({{0.0, 0.0}, {2.0, 0.0}, {1.0, 3.0}});
  EXPECT_TRUE(AllClose(s.mean(), Vector{1.0, 1.0}, 1e-12));
  // Scatter = sum (x - mean)(x - mean)'.
  // Points centered: (-1,-1), (1,-1), (0,2) -> xx: 2, yy: 6, xy: 0.
  EXPECT_NEAR(s.scatter()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(s.scatter()(1, 1), 6.0, 1e-12);
  EXPECT_NEAR(s.scatter()(0, 1), 0.0, 1e-12);
}

TEST(WeightedStatsTest, WeightedMeanMatchesEq2) {
  // Eq. 2: x̄ = Σ v_k x_k / Σ v_k.
  const WeightedStats s =
      WeightedStats::FromPoints({{0.0}, {10.0}}, {1.0, 3.0});
  EXPECT_NEAR(s.mean()[0], 7.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.weight(), 4.0);
}

TEST(WeightedStatsTest, IncrementalMatchesBatch) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(30));
    std::vector<Vector> points;
    std::vector<double> weights;
    for (int i = 0; i < n; ++i) {
      points.push_back(rng.GaussianVector(4));
      weights.push_back(rng.Uniform(0.5, 3.0));
    }
    const WeightedStats batch = WeightedStats::FromPoints(points, weights);

    // Direct two-pass computation as the ground truth.
    Vector mean(4, 0.0);
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      linalg::Axpy(weights[static_cast<std::size_t>(i)],
                   points[static_cast<std::size_t>(i)], mean);
      total += weights[static_cast<std::size_t>(i)];
    }
    mean = linalg::Scale(mean, 1.0 / total);
    Matrix scatter(4, 4, 0.0);
    for (int i = 0; i < n; ++i) {
      const Vector d = linalg::Sub(points[static_cast<std::size_t>(i)], mean);
      scatter = scatter.Add(linalg::OuterProduct(d, d).Scale(
          weights[static_cast<std::size_t>(i)]));
    }
    EXPECT_TRUE(AllClose(batch.mean(), mean, 1e-9));
    EXPECT_TRUE(AllClose(batch.scatter(), scatter, 1e-8));
  }
}

TEST(WeightedStatsTest, MergeMatchesPooledRecomputation) {
  // The core property behind Eq. 11-13: merging summaries equals
  // recomputing from the union of the points.
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vector> pa, pb, all;
    std::vector<double> wa, wb, wall;
    const int na = 1 + static_cast<int>(rng.UniformInt(15));
    const int nb = 1 + static_cast<int>(rng.UniformInt(15));
    for (int i = 0; i < na; ++i) {
      pa.push_back(rng.GaussianVector(3));
      wa.push_back(rng.Uniform(0.5, 3.0));
      all.push_back(pa.back());
      wall.push_back(wa.back());
    }
    for (int i = 0; i < nb; ++i) {
      pb.push_back(linalg::Add(rng.GaussianVector(3), {5, 0, 0}));
      wb.push_back(rng.Uniform(0.5, 3.0));
      all.push_back(pb.back());
      wall.push_back(wb.back());
    }
    const WeightedStats merged = WeightedStats::Merged(
        WeightedStats::FromPoints(pa, wa), WeightedStats::FromPoints(pb, wb));
    const WeightedStats direct = WeightedStats::FromPoints(all, wall);
    EXPECT_EQ(merged.n(), direct.n());
    EXPECT_NEAR(merged.weight(), direct.weight(), 1e-9);
    EXPECT_TRUE(AllClose(merged.mean(), direct.mean(), 1e-9));
    EXPECT_TRUE(AllClose(merged.scatter(), direct.scatter(), 1e-7));
  }
}

TEST(WeightedStatsTest, MergeWithEmptyIsIdentity) {
  const WeightedStats a = WeightedStats::FromPoints({{1.0}, {2.0}});
  const WeightedStats empty(1);
  const WeightedStats m1 = WeightedStats::Merged(a, empty);
  const WeightedStats m2 = WeightedStats::Merged(empty, a);
  EXPECT_TRUE(AllClose(m1.mean(), a.mean(), 1e-12));
  EXPECT_TRUE(AllClose(m2.mean(), a.mean(), 1e-12));
}

TEST(WeightedStatsTest, CovarianceUsesWeightMinusOneDivisor) {
  const WeightedStats s = WeightedStats::FromPoints({{0.0}, {2.0}});
  // Scatter = 2 (each point 1 away from mean 1), weight = 2, cov = 2/(2-1).
  EXPECT_NEAR(s.Covariance()(0, 0), 2.0, 1e-12);
}

TEST(WeightedStatsTest, CovarianceOfSingletonIsZero) {
  WeightedStats s(2);
  s.AddPoint({1.0, 1.0}, 1.0);
  EXPECT_NEAR(s.Covariance().SquaredFrobeniusNorm(), 0.0, 1e-20);
}

TEST(PooledCovarianceTest, MatchesEq7) {
  // Two clusters with known scatters: pooled = (scat_a + scat_b)/(m_a+m_b-2).
  const WeightedStats a = WeightedStats::FromPoints({{0.0}, {2.0}});   // scatter 2
  const WeightedStats b = WeightedStats::FromPoints({{10.0}, {14.0}}); // scatter 8
  const Matrix pooled = PooledCovariance({&a, &b});
  EXPECT_NEAR(pooled(0, 0), (2.0 + 8.0) / (4.0 - 2.0), 1e-12);
}

TEST(PooledCovariancePairTest, MatchesEq15) {
  const WeightedStats a = WeightedStats::FromPoints({{0.0}, {2.0}});
  const WeightedStats b = WeightedStats::FromPoints({{10.0}, {14.0}});
  // Eq. 15: (scatter_a + scatter_b) / (m_a + m_b) = 10 / 4.
  EXPECT_NEAR(PooledCovariancePair(a, b)(0, 0), 2.5, 1e-12);
}

/// AddPoint and Merged as whole-vector and whole-matrix temporaries
/// (OuterProduct, Add, Scale), the form the in-place updates replaced. Each
/// product is stored before it is added, so no step can fuse into an FMA.
struct ChainStats {
  int n = 0;
  double weight = 0.0;
  Vector mean;
  Matrix scatter;
  explicit ChainStats(int dim)
      : mean(static_cast<std::size_t>(dim), 0.0), scatter(dim, dim, 0.0) {}
};

void ChainAddPoint(ChainStats& s, const Vector& x, double w) {
  const double new_weight = s.weight + w;
  const Vector delta = linalg::Sub(x, s.mean);
  const Vector mean_step = linalg::Scale(delta, w / new_weight);
  s.mean = linalg::Add(s.mean, mean_step);
  const Vector delta2 = linalg::Sub(x, s.mean);
  const Matrix update = linalg::OuterProduct(delta, delta2)
                            .Add(linalg::OuterProduct(delta2, delta))
                            .Scale(0.5 * w);
  s.scatter = s.scatter.Add(update);
  s.weight = new_weight;
  ++s.n;
}

ChainStats ChainMerged(const ChainStats& a, const ChainStats& b) {
  if (a.n == 0) return b;
  if (b.n == 0) return a;
  ChainStats out(static_cast<int>(a.mean.size()));
  out.n = a.n + b.n;
  out.weight = a.weight + b.weight;
  const double wa = a.weight / out.weight;
  const double wb = b.weight / out.weight;
  out.mean = linalg::Add(linalg::Scale(a.mean, wa), linalg::Scale(b.mean, wb));
  const Vector diff = linalg::Sub(a.mean, b.mean);
  const double cross = a.weight * b.weight / out.weight;
  out.scatter = a.scatter.Add(b.scatter)
                    .Add(linalg::OuterProduct(diff, diff).Scale(cross));
  return out;
}

/// Equal bits, except that any NaN matches any NaN: which operand's NaN an
/// add or multiply passes on (and so its sign) follows the operand order
/// the compiler picks, which neither form fixes.
bool SameBits(const double* a, const double* b, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a + i, b + i, sizeof(double)) != 0) return false;
  }
  return true;
}

void ExpectSameBits(const WeightedStats& got, const ChainStats& want) {
  const std::size_t dim = want.mean.size();
  EXPECT_EQ(got.n(), want.n);
  const double weight = got.weight();
  EXPECT_TRUE(SameBits(&weight, &want.weight, 1));
  EXPECT_TRUE(SameBits(got.mean().data(), want.mean.data(), dim));
  EXPECT_TRUE(SameBits(got.scatter().data(), want.scatter.data(), dim * dim));
}

TEST(WeightedStatsTest, InPlaceUpdatesMatchTheTemporariesChainBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  // Coordinates beside the Gaussian draws: signed zeros, subnormals, huge
  // magnitudes whose products overflow, infinities and NaN.
  const double specials[] = {-0.0,  0.0,   5e-324, -3e-310, 1e-300,
                             1e300, -1e300, inf,   -inf,
                             std::numeric_limits<double>::quiet_NaN()};
  const double weights[] = {1.0, 0.7, 2.5, 3e-310, 1e10};
  Rng rng(43);
  for (const int dim : {1, 3, 16}) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << " trial " << trial);
      // Trial t draws a special coordinate with probability t / 12, so the
      // early trials stay finite and the late ones are mostly specials.
      std::vector<WeightedStats> got;
      std::vector<ChainStats> want;
      for (int s = 0; s < 3; ++s) {
        got.emplace_back(dim);
        want.emplace_back(dim);
        const int points = s == 2 ? 0 : 1 + static_cast<int>(rng.UniformInt(6));
        for (int p = 0; p < points; ++p) {
          Vector x = rng.GaussianVector(dim);
          for (double& v : x) {
            if (rng.UniformInt(12) < static_cast<std::size_t>(trial)) {
              v = specials[rng.UniformInt(std::size(specials))];
            }
          }
          const double w = weights[rng.UniformInt(std::size(weights))];
          got.back().AddPoint(x, w);
          ChainAddPoint(want.back(), x, w);
          ExpectSameBits(got.back(), want.back());
        }
      }
      // Merges of two filled summaries and with the empty third, both ways.
      for (const auto& [i, j] : {std::pair{0, 1}, std::pair{1, 0},
                                 std::pair{0, 2}, std::pair{2, 1}}) {
        ExpectSameBits(WeightedStats::Merged(got[i], got[j]),
                       ChainMerged(want[i], want[j]));
      }
    }
  }
}

TEST(WeightedStatsTest, RejectsNonPositiveWeight) {
  WeightedStats s(1);
  EXPECT_DEATH(s.AddPoint({1.0}, 0.0), "w > 0");
}

}  // namespace
}  // namespace qcluster::stats
