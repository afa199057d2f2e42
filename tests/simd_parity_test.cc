// Cross-tier determinism: every SIMD dispatch tier available on this host
// must reproduce the scalar tier *byte for byte* — for every metric, across
// dimensions that exercise the full-vector, tail-only, and mixed paths,
// through both the scalar and the batched entry points, the rectangle
// bounds, and a multi-threaded top-k search — including NaN/∞ propagation
// and subnormal inputs. This is the contract (linalg/simd.h) that makes the
// dispatch tier a pure throughput decision.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/disjunctive_distance.h"
#include "index/br_tree.h"
#include "index/distance.h"
#include "index/linear_scan.h"
#include "linalg/flat_view.h"
#include "linalg/simd.h"

namespace qcluster::index {
namespace {

using core::Cluster;
using core::DisjunctiveDistance;
using linalg::FlatBlock;
using linalg::Vector;
using linalg::simd::Tier;

/// The vector axis is the batch dimension, so parity must hold at any d —
/// including the paper's real 3-dim features — and the dimension sweep
/// exercises the per-element loops at widths around and beyond the lane
/// count. The full quadratic form walks its matrix four rows at a time, so
/// the sweep also covers each remainder of d mod 4 after a whole block
/// (5, 14 and 7 leave one, two and three rows) and wide-full's d = 16.
/// Point counts in the tests are deliberately not multiples of the widest
/// row group (4), so the batch-tail fallthrough to the row kernels is
/// always on the tested path.
constexpr int kDims[] = {1, 3, 4, 5, 7, 14, 16, 32};

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers;
  for (Tier t : {Tier::kScalar, Tier::kWidth2, Tier::kWidth4}) {
    if (linalg::simd::TierAvailable(t)) tiers.push_back(t);
  }
  return tiers;
}

::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// Restores the dispatch default even when an assertion fails mid-test.
class SimdParityTest : public ::testing::Test {
 protected:
  ~SimdParityTest() override { linalg::simd::ResetTierFromEnv(); }
};

std::vector<Vector> RandomPoints(int n, int dim, Rng& rng) {
  std::vector<Vector> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pts.push_back(rng.GaussianVector(dim));
  return pts;
}

DisjunctiveDistance MakeDisjunctive(int dim, stats::CovarianceScheme scheme,
                                    Rng& rng) {
  std::vector<Cluster> clusters;
  for (int c = 0; c < 3; ++c) {
    Cluster cluster(dim);
    const Vector center = rng.GaussianVector(dim);
    for (int i = 0; i < 2 * dim + 5; ++i) {
      cluster.Add(linalg::Add(center, rng.GaussianVector(dim)), 1.0);
    }
    clusters.push_back(std::move(cluster));
  }
  return DisjunctiveDistance(clusters, scheme, 1e-4);
}

/// All in-tree metrics at dimension `dim`, freshly seeded per dim.
std::vector<std::unique_ptr<DistanceFunction>> AllMetrics(int dim, Rng& rng) {
  std::vector<std::unique_ptr<DistanceFunction>> metrics;
  metrics.push_back(std::make_unique<EuclideanDistance>(
      rng.GaussianVector(dim)));
  Vector w(static_cast<std::size_t>(dim));
  for (double& x : w) x = rng.Uniform(0.0, 5.0);
  metrics.push_back(std::make_unique<MahalanobisDistance>(
      rng.GaussianVector(dim), linalg::Matrix::Diagonal(w)));
  Vector diag(static_cast<std::size_t>(dim));
  for (double& x : diag) x = rng.Uniform(0.1, 3.0);
  metrics.push_back(std::make_unique<MahalanobisDistance>(
      rng.GaussianVector(dim), linalg::Matrix::Diagonal(diag)));
  // Full SPD matrix: A = I + 0.1·GᵀG keeps it well-conditioned at any dim.
  linalg::Matrix g(dim, dim);
  for (int r = 0; r < dim; ++r) {
    for (int c = 0; c < dim; ++c) g(r, c) = rng.Gaussian();
  }
  linalg::Matrix a = g.Transposed().Multiply(g).Scale(0.1);
  a.AddToDiagonal(1.0);
  metrics.push_back(std::make_unique<MahalanobisDistance>(
      rng.GaussianVector(dim), a));
  metrics.push_back(std::make_unique<DisjunctiveDistance>(
      MakeDisjunctive(dim, stats::CovarianceScheme::kDiagonal, rng)));
  metrics.push_back(std::make_unique<DisjunctiveDistance>(
      MakeDisjunctive(dim, stats::CovarianceScheme::kInverse, rng)));
  return metrics;
}

/// Scores `pts` under `dist` on the active tier: batch, per-point scalar,
/// and a rectangle bound, concatenated into one comparable signature.
std::vector<double> Signature(const DistanceFunction& dist,
                              const std::vector<Vector>& pts) {
  const FlatBlock block = FlatBlock::FromPoints(pts);
  std::vector<double> sig(pts.size());
  dist.DistanceBatch(block.view(), sig.data());
  for (const Vector& p : pts) sig.push_back(dist.Distance(p));
  Rect rect = Rect::Empty(dist.dim());
  rect.Expand(pts.front().data());
  rect.Expand(pts.back().data());
  sig.push_back(dist.MinDistance(rect));
  return sig;
}

TEST_F(SimdParityTest, AllMetricsAllDimsByteIdentical) {
  const std::vector<Tier> tiers = AvailableTiers();
  ASSERT_FALSE(tiers.empty());
  for (int dim : kDims) {
    Rng rng(1000 + dim);
    const std::vector<Vector> pts = RandomPoints(61, dim, rng);
    const auto metrics = AllMetrics(dim, rng);
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      ASSERT_TRUE(linalg::simd::SetTier(Tier::kScalar));
      const std::vector<double> reference = Signature(*metrics[m], pts);
      for (Tier tier : tiers) {
        ASSERT_TRUE(linalg::simd::SetTier(tier));
        const std::vector<double> got = Signature(*metrics[m], pts);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(BitEqual(got[i], reference[i]))
              << "metric " << m << " dim " << dim << " tier "
              << linalg::simd::TierName(tier) << " value " << i;
        }
      }
    }
  }
}

TEST_F(SimdParityTest, NonFiniteAndSubnormalInputsByteIdentical) {
  // NaN rows are defined input: under QCLUSTER_AUDIT=1 (Debug) scoring
  // them must not report an invariant violation.
  const long long violations_before =
      MetricsRegistry::Global().CounterValue("audit.violations");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  for (int dim : {3, 5, 7, 14}) {
    Rng rng(2000 + dim);
    std::vector<Vector> pts = RandomPoints(19, dim, rng);
    // Poison a few rows so NaN/∞/subnormal terms land in different lanes
    // (row index modulates the position).
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const std::size_t at = i % static_cast<std::size_t>(dim);
      if (i % 4 == 1) pts[i][at] = kNan;
      if (i % 4 == 2) pts[i][at] = kInf;
      if (i % 4 == 3) pts[i][at] = kSub;
    }
    const auto metrics = AllMetrics(dim, rng);
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      ASSERT_TRUE(linalg::simd::SetTier(Tier::kScalar));
      const std::vector<double> reference = Signature(*metrics[m], pts);
      for (Tier tier : AvailableTiers()) {
        ASSERT_TRUE(linalg::simd::SetTier(tier));
        const std::vector<double> got = Signature(*metrics[m], pts);
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(BitEqual(got[i], reference[i]))
              << "metric " << m << " dim " << dim << " tier "
              << linalg::simd::TierName(tier) << " value " << i;
        }
      }
    }
  }
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("audit.violations"),
            violations_before);
}

TEST_F(SimdParityTest, NanDistancePropagates) {
  // A NaN coordinate must surface as a NaN distance under every metric on
  // every tier, through the per-point and the batched entry points — not
  // drop silently, and not clamp to a leading 0 — so corrupt features are
  // visible rather than ranked. Seven rows: one full width-4 group plus a
  // tail that runs the row kernel.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (int dim : {3, 5}) {
    Rng rng(4000 + dim);
    std::vector<Vector> pts = RandomPoints(7, dim, rng);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      pts[i][i % static_cast<std::size_t>(dim)] = kNan;
    }
    const FlatBlock block = FlatBlock::FromPoints(pts);
    const auto metrics = AllMetrics(dim, rng);
    for (Tier tier : AvailableTiers()) {
      ASSERT_TRUE(linalg::simd::SetTier(tier));
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        std::vector<double> batch(pts.size());
        metrics[m]->DistanceBatch(block.view(), batch.data());
        for (std::size_t i = 0; i < pts.size(); ++i) {
          EXPECT_TRUE(std::isnan(metrics[m]->Distance(pts[i])))
              << "metric " << m << " dim " << dim << " tier "
              << linalg::simd::TierName(tier) << " row " << i;
          EXPECT_TRUE(std::isnan(batch[i]))
              << "metric " << m << " dim " << dim << " tier "
              << linalg::simd::TierName(tier) << " batch row " << i;
        }
      }
    }
  }
}

TEST_F(SimdParityTest, NonFiniteAndHugeRowsRankLastOnEveryTierAndIndex) {
  // A block mixing finite rows with NaN, ±∞ and ±1e300 rows (whole rows
  // and single poisoned coordinates). Under every metric, both indexes —
  // the scan at 1 and 4 threads, and the BR-tree — on every tier must rank
  // every non-NaN distance ahead of every NaN one and return exactly a
  // serial scalar scan's ids and distance bits.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kSpecial[] = {kNan, kInf, -kInf, 1e300, -1e300};
  constexpr int kDim = 5;
  Rng rng(5000);
  std::vector<Vector> pts = RandomPoints(203, kDim, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double value = kSpecial[(i / 7) % 5];
    if (i % 7 == 1) {
      for (double& x : pts[i]) x = value;
    } else if (i % 7 == 4) {
      pts[i][i % kDim] = value;
    }
  }
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const BrTree tree(&block);
  const int n = static_cast<int>(pts.size());
  const auto metrics = AllMetrics(kDim, rng);
  const auto nan_last = [](const std::vector<Neighbor>& result) {
    for (std::size_t i = 1; i < result.size(); ++i) {
      if (std::isnan(result[i - 1].distance) &&
          !std::isnan(result[i].distance)) {
        return false;
      }
    }
    return true;
  };
  ThreadPool serial(1);
  ThreadPool parallel(4);
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    ASSERT_TRUE(linalg::simd::SetTier(Tier::kScalar));
    const LinearScanIndex reference_index(block.view(), &serial);
    const std::vector<Neighbor> all = reference_index.Search(*metrics[m], n);
    ASSERT_EQ(all.size(), pts.size());
    EXPECT_TRUE(nan_last(all)) << "metric " << m;
    EXPECT_TRUE(std::isnan(all.back().distance)) << "metric " << m;
    for (int k : {10, n}) {
      const std::vector<Neighbor> reference =
          reference_index.Search(*metrics[m], k);
      EXPECT_FALSE(std::isnan(reference.front().distance)) << "metric " << m;
      for (Tier tier : AvailableTiers()) {
        ASSERT_TRUE(linalg::simd::SetTier(tier));
        std::vector<std::pair<std::string, std::vector<Neighbor>>> runs;
        runs.emplace_back("scan/1", LinearScanIndex(block.view(), &serial)
                                        .Search(*metrics[m], k));
        runs.emplace_back("scan/4", LinearScanIndex(block.view(), &parallel)
                                        .Search(*metrics[m], k));
        runs.emplace_back("br_tree", tree.Search(*metrics[m], k));
        for (const auto& [index, got] : runs) {
          const std::string where = "metric " + std::to_string(m) + " k " +
                                    std::to_string(k) + " tier " +
                                    linalg::simd::TierName(tier) + " " + index;
          EXPECT_TRUE(nan_last(got)) << where;
          ASSERT_EQ(got.size(), reference.size()) << where;
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, reference[i].id) << where << " rank " << i;
            EXPECT_TRUE(BitEqual(got[i].distance, reference[i].distance))
                << where << " rank " << i;
          }
        }
      }
      ASSERT_TRUE(linalg::simd::SetTier(Tier::kScalar));
    }
  }
}

TEST_F(SimdParityTest, TieHeavyTopKIdenticalAcrossTiersAndThreads) {
  // Duplicated points force distance ties; the (distance, id) tie-break
  // must yield one canonical neighbor list on every tier × thread count.
  Rng rng(3000);
  const int dim = 6;
  std::vector<Vector> pts;
  for (int i = 0; i < 40; ++i) {
    const Vector p = rng.GaussianVector(dim);
    for (int dup = 0; dup < 8; ++dup) pts.push_back(p);
  }
  // Odd count: the last row goes through the batch-tail row-kernel path.
  pts.push_back(rng.GaussianVector(dim));
  const FlatBlock block = FlatBlock::FromPoints(pts);
  const auto metrics = AllMetrics(dim, rng);
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    ASSERT_TRUE(linalg::simd::SetTier(Tier::kScalar));
    ThreadPool single(1);
    const LinearScanIndex reference_index(block.view(), &single);
    const std::vector<Neighbor> reference =
        reference_index.Search(*metrics[m], 25);
    for (Tier tier : AvailableTiers()) {
      for (int threads : {1, 4}) {
        ASSERT_TRUE(linalg::simd::SetTier(tier));
        ThreadPool pool(threads);
        const LinearScanIndex index(block.view(), &pool);
        const std::vector<Neighbor> got = index.Search(*metrics[m], 25);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, reference[i].id)
              << "metric " << m << " tier " << linalg::simd::TierName(tier)
              << " threads " << threads << " rank " << i;
          EXPECT_TRUE(BitEqual(got[i].distance, reference[i].distance));
        }
      }
    }
  }
}

TEST_F(SimdParityTest, SetTierRejectsUnavailableAndResetRestoresDefault) {
  ASSERT_TRUE(linalg::simd::SetTier(Tier::kScalar));
  EXPECT_EQ(linalg::simd::ActiveTier(), Tier::kScalar);
  linalg::simd::ResetTierFromEnv();
  // Default dispatch honors QCLUSTER_SIMD when set; either way the active
  // tier must be one this host actually supports.
  EXPECT_TRUE(linalg::simd::TierAvailable(linalg::simd::ActiveTier()));
  if (!linalg::simd::TierAvailable(Tier::kWidth4)) {
    const Tier before = linalg::simd::ActiveTier();
    EXPECT_FALSE(linalg::simd::SetTier(Tier::kWidth4));
    EXPECT_EQ(linalg::simd::ActiveTier(), before);
  }
}

TEST_F(SimdParityTest, TierNamesAreStable) {
  EXPECT_STREQ(linalg::simd::TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(linalg::simd::TierName(Tier::kWidth4), "avx2");
}

}  // namespace
}  // namespace qcluster::index
