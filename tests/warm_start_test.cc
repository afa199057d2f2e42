// Warm-vs-cold exactness for the cross-round session cache: every exact
// index path served through an index::WarmStart must return *exactly*
// (bit for bit, ties included) what the cold search returns — across every
// metric family, metric-changing feedback rounds, thread counts, and SIMD
// dispatch tiers. The data is deliberately tie-heavy (coarse grid plus
// exact duplicate points) so any pruning rule that drops a tied candidate
// shows up as an ordering or membership diff.
//
// The invalidation contract is also pinned down at the unit level: an
// answer is reused without any search only for the index that recorded it,
// at the same k, on exact structural equality of the metric's quadratic
// decomposition; a covariance update (or any parameter change, down to one
// ulp) forces a search under the new metric, and an opaque metric never
// stores a key at all — stale reuse is impossible by construction, not by
// tolerance.

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/falcon.h"
#include "baselines/qex.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/disjunctive_distance.h"
#include "counting_new.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"
#include "linalg/flat_view.h"
#include "linalg/simd.h"

namespace qcluster {
namespace {

using core::Cluster;
using core::DisjunctiveDistance;
using index::DistanceFunction;
using index::KnnIndex;
using index::Neighbor;
using linalg::Vector;
using linalg::simd::Tier;

constexpr int kDim = 8;
constexpr int kK = 25;

/// Tie-heavy feature set: coordinates snapped to a coarse grid and every
/// unique point stored three times, so the k-th distance is almost always
/// shared by several candidates and the (distance, id) tiebreak is load-
/// bearing in every search.
const linalg::FlatBlock& TieHeavyPoints() {
  static const auto* pts = [] {
    Rng rng(811);
    std::vector<Vector> rows;
    for (int i = 0; i < 150; ++i) {
      Vector p(kDim);
      for (double& x : p) x = 0.5 * std::round(rng.Uniform(-4.0, 4.0) * 2.0);
      rows.push_back(p);
      rows.push_back(p);  // Exact duplicates: guaranteed distance ties.
      rows.push_back(p);
    }
    return new linalg::FlatBlock(linalg::FlatBlock::FromPoints(rows));
  }();
  return *pts;
}

/// Forwards a base metric's values but keeps the DistanceFunction defaults
/// for MinDistance (no pruning) and decomposition (null): the opaque-metric
/// case, where WarmStart can never store a key and must re-score always.
class OpaqueMetric final : public DistanceFunction {
 public:
  explicit OpaqueMetric(const DistanceFunction* base) : base_(base) {}
  int dim() const override { return base_->dim(); }
  double DistanceRow(const double* x) const override {
    return base_->DistanceRow(x);
  }
  void DistanceBatch(const linalg::FlatView& view, double* out) const override {
    base_->DistanceBatch(view, out);
  }

 private:
  const DistanceFunction* base_;
};

/// Implements only DistanceRow (an L1 distance): the batch default loops
/// over it, and the MinDistance default (0) disables pruning.
class RowOnlyMetric final : public DistanceFunction {
 public:
  explicit RowOnlyMetric(Vector query) : query_(std::move(query)) {}
  int dim() const override { return static_cast<int>(query_.size()); }
  double DistanceRow(const double* x) const override {
    double sum = 0.0;
    for (std::size_t d = 0; d < query_.size(); ++d) {
      sum += std::abs(x[d] - query_[d]);
    }
    return sum;
  }

 private:
  Vector query_;
};

/// Three clusters, each summarizing `members` points of the tie-heavy set
/// starting at `offset`; different offsets/counts change the cluster
/// covariances, which is exactly the cross-round invalidation case.
std::vector<Cluster> MakeClusters(int offset, int members) {
  const auto& pts = TieHeavyPoints();
  std::vector<Cluster> clusters;
  for (int c = 0; c < 3; ++c) {
    Cluster cluster(kDim);
    for (int i = 0; i < members; ++i) {
      cluster.Add(pts[static_cast<std::size_t>(
                      (offset + c * 120 + i) % static_cast<int>(pts.size()))],
                  1.0);
    }
    clusters.push_back(std::move(cluster));
  }
  return clusters;
}

DisjunctiveDistance MakeDisjunctive(
    int offset, int members,
    stats::CovarianceScheme scheme = stats::CovarianceScheme::kDiagonal) {
  return DisjunctiveDistance(MakeClusters(offset, members), scheme, 1e-4);
}

/// A feedback session's metric sequence for one metric family: four rounds
/// whose parameters drift, then a fifth that repeats round 1 exactly
/// (rebuilt from the same inputs), so both the re-score path (key mismatch)
/// and the reuse path (equal key) run inside every session.
std::vector<std::unique_ptr<DistanceFunction>> MetricRounds(
    const std::string& family) {
  const auto& pts = TieHeavyPoints();
  std::vector<std::unique_ptr<DistanceFunction>> rounds;
  Rng rng(407);
  if (family == "euclidean") {
    for (int t = 0; t < 4; ++t) {
      Vector q = pts[static_cast<std::size_t>(3 * t)];
      q[0] += 0.05 * t;
      rounds.push_back(std::make_unique<index::EuclideanDistance>(q));
    }
    Vector q = pts[3];
    q[0] += 0.05;
    rounds.push_back(std::make_unique<index::EuclideanDistance>(q));
  } else if (family == "weighted") {
    for (int t = 0; t < 5; ++t) {
      Vector w(kDim);
      const int drift = t == 4 ? 1 : t;  // Round 4 repeats round 1.
      for (int d = 0; d < kDim; ++d) w[d] = 1.0 + 0.25 * ((d + drift) % 4);
      rounds.push_back(std::make_unique<index::MahalanobisDistance>(
          pts[static_cast<std::size_t>(drift)], linalg::Matrix::Diagonal(w)));
    }
  } else if (family == "mahalanobis_diag" || family == "mahalanobis_full") {
    const bool full = family == "mahalanobis_full";
    linalg::Matrix g(kDim, kDim);
    for (int r = 0; r < kDim; ++r) {
      for (int c = 0; c < kDim; ++c) g(r, c) = rng.Gaussian();
    }
    linalg::Matrix a(kDim, kDim);
    if (full) {
      a = g.Transposed().Multiply(g).Scale(0.05);
      a.AddToDiagonal(1.0);
    } else {
      for (int d = 0; d < kDim; ++d) a(d, d) = 1.0 + 0.5 * (d % 3);
    }
    for (int t = 0; t < 5; ++t) {
      const int drift = t == 4 ? 1 : t;
      Vector q = pts[static_cast<std::size_t>(6 * drift)];
      q[1] += 0.1 * drift;
      rounds.push_back(std::make_unique<index::MahalanobisDistance>(q, a));
    }
  } else if (family == "disjunctive" || family == "disjunctive_full") {
    // Growing member sets: every round updates the cluster covariances, so
    // every warm round crosses a key mismatch and re-scores.
    const auto scheme = family == "disjunctive"
                            ? stats::CovarianceScheme::kDiagonal
                            : stats::CovarianceScheme::kInverse;
    for (int t = 0; t < 5; ++t) {
      const int drift = t == 4 ? 1 : t;
      rounds.push_back(std::make_unique<DisjunctiveDistance>(
          MakeDisjunctive(drift, 18 + drift, scheme)));
    }
  } else if (family == "qex") {
    for (int t = 0; t < 5; ++t) {
      const int drift = t == 4 ? 1 : t;
      rounds.push_back(std::make_unique<baselines::QexDistance>(
          MakeClusters(drift, 18 + drift), 1e-4));
    }
  } else if (family == "falcon") {
    // A good set that grows by one marked point a round.
    for (int t = 0; t < 5; ++t) {
      const int drift = t == 4 ? 1 : t;
      std::vector<Vector> good;
      for (int i = 0; i < 3 + drift; ++i) {
        good.push_back(pts[static_cast<std::size_t>(3 * (5 * i + drift))]);
      }
      rounds.push_back(
          std::make_unique<baselines::FalconDistance>(std::move(good), -5.0));
    }
  } else if (family == "row_only") {
    for (int t = 0; t < 5; ++t) {
      const int drift = t == 4 ? 1 : t;
      Vector q = pts[static_cast<std::size_t>(3 * drift)];
      q[3] += 0.05 * drift;
      rounds.push_back(std::make_unique<RowOnlyMetric>(q));
    }
  } else {
    ADD_FAILURE() << "unknown family " << family;
  }
  return rounds;
}

/// Every metric family: the first six override DistanceBatch with a SIMD
/// kernel, the last three score a batch through DistanceRow.
const std::vector<std::string>& Families() {
  static const auto* families = new std::vector<std::string>{
      "euclidean",   "weighted", "mahalanobis_diag", "mahalanobis_full",
      "disjunctive", "disjunctive_full", "qex", "falcon", "row_only"};
  return *families;
}

/// Replays one session's rounds cold and warm against `index` and demands
/// bitwise-equal results every round. `reference` (when given) must agree
/// too — used to cross-check tree indexes against the linear scan.
void ExpectWarmMatchesCold(
    const KnnIndex& index,
    const std::vector<std::unique_ptr<DistanceFunction>>& rounds,
    const std::string& context, const KnnIndex* reference = nullptr) {
  index::WarmStart warm;
  for (std::size_t t = 0; t < rounds.size(); ++t) {
    const DistanceFunction& dist = *rounds[t];
    const std::vector<Neighbor> cold = index.Search(dist, kK);
    const std::vector<Neighbor> warm_result = index.SearchWarm(dist, kK, warm);
    EXPECT_EQ(warm_result, cold) << context << " round " << t;
    if (reference != nullptr) {
      EXPECT_EQ(cold, reference->Search(dist, kK))
          << context << " round " << t << " (vs reference)";
    }
    ASSERT_FALSE(cold.empty()) << context;
  }
  EXPECT_GE(warm.size(), kK) << context;
}

/// True when a search did no work at all: no distance, node or page.
bool NoWork(const index::SearchStats& s) {
  return s.distance_evaluations == 0 && s.nodes_visited == 0 &&
         s.leaves_visited == 0;
}

TEST(WarmStartUnitTest, IdenticalKeyReusesWithoutRescoring) {
  const auto& pts = TieHeavyPoints();
  const index::LinearScanIndex scan(pts.view());
  const index::EuclideanDistance dist(pts[0]);
  index::WarmStart warm;
  DiscardResult(scan.SearchWarm(dist, kK, warm));
  ASSERT_EQ(warm.size(), kK);

  // The same metric rebuilt from the same query: decompositions are equal
  // bit for bit, so the recorded answer comes back without a re-score.
  const index::EuclideanDistance same(pts[0]);
  ASSERT_NE(warm.Find(same, kK, scan.serial()), nullptr);
  index::SearchStats stats;
  EXPECT_EQ(scan.SearchWarm(same, kK, warm, &stats), scan.Search(dist, kK));
  EXPECT_TRUE(NoWork(stats));
}

TEST(WarmStartUnitTest, CovarianceUpdateInvalidatesAndRescores) {
  const auto& pts = TieHeavyPoints();
  const index::LinearScanIndex scan(pts.view());
  const DisjunctiveDistance before = MakeDisjunctive(0, 18);
  index::WarmStart warm;
  DiscardResult(scan.SearchWarm(before, kK, warm));

  // One extra member per cluster: centroids and covariances both move, the
  // stored key no longer matches, and the scan must re-score every recorded
  // entry under the *new* metric.
  const DisjunctiveDistance after = MakeDisjunctive(0, 19);
  EXPECT_EQ(warm.Find(after, kK, scan.serial()), nullptr);
  const index::WarmStart::Seed seed =
      warm.Reseed(after, kK, scan.serial(), pts.view());
  ASSERT_TRUE(seed.valid());
  EXPECT_EQ(seed.evaluations, warm.size());
  // The re-scored bound certifies against the new metric's true k-th.
  const auto cold = scan.Search(after, kK);
  EXPECT_GE(seed.theta0, cold.back().distance);
  index::SearchStats stats;
  EXPECT_EQ(scan.SearchWarm(after, kK, warm, &stats), cold);
  EXPECT_EQ(stats.distance_evaluations,
            static_cast<long long>(pts.size()) + kK);
}

TEST(WarmStartUnitTest, OpaqueMetricStoresNoKey) {
  const auto& pts = TieHeavyPoints();
  const index::LinearScanIndex scan(pts.view());
  const index::EuclideanDistance base(pts[0]);
  const OpaqueMetric opaque(&base);
  index::WarmStart warm;
  DiscardResult(scan.SearchWarm(opaque, kK, warm));
  ASSERT_EQ(warm.size(), kK);
  EXPECT_FALSE(warm.has_key());

  // Even the *same* opaque metric cannot match: with no key stored, reuse
  // is impossible and every round searches — stale answers cannot exist.
  EXPECT_EQ(warm.Find(opaque, kK, scan.serial()), nullptr);
  index::SearchStats stats;
  EXPECT_EQ(scan.SearchWarm(opaque, kK, warm, &stats), scan.Search(base, kK));
  EXPECT_EQ(stats.distance_evaluations,
            static_cast<long long>(pts.size()) + kK);
}

TEST(WarmStartUnitTest, TooFewCachedCandidatesYieldsInvalidSeed) {
  const auto& pts = TieHeavyPoints();
  const index::LinearScanIndex scan(pts.view());
  const index::EuclideanDistance dist(pts[0]);
  index::WarmStart warm;
  DiscardResult(scan.SearchWarm(dist, 5, warm));
  ASSERT_EQ(warm.size(), 5);
  // Fewer than k recorded entries cannot certify a k-th-distance bound.
  EXPECT_FALSE(warm.Reseed(dist, kK, scan.serial(), pts.view()).valid());
  // And an empty cache seeds nothing at all.
  warm.Clear();
  EXPECT_TRUE(warm.empty());
  EXPECT_FALSE(warm.Reseed(dist, 1, scan.serial(), pts.view()).valid());
}

TEST(WarmStartUnitTest, ThetaUpperBoundsTrueKthDistance) {
  const auto& pts = TieHeavyPoints();
  const index::LinearScanIndex scan(pts.view());
  const auto rounds = MetricRounds("disjunctive");
  index::WarmStart warm;
  DiscardResult(scan.SearchWarm(*rounds[0], kK, warm));
  for (std::size_t t = 1; t < rounds.size(); ++t) {
    const index::WarmStart::Seed seed =
        warm.Reseed(*rounds[t], kK, scan.serial(), pts.view());
    ASSERT_TRUE(seed.valid()) << t;
    const auto cold = scan.Search(*rounds[t], kK);
    // The certificate: a k-th smallest over >= k distinct points of the
    // database can never undercut the true k-th distance.
    EXPECT_GE(seed.theta0, cold.back().distance) << t;
    DiscardResult(scan.SearchWarm(*rounds[t], kK, warm));
  }
}

TEST(WarmStartUnitTest, RepeatedIdsInARecordedAnswerKeepOneEntry) {
  // Ten copies of the nearest point recorded as an answer for k = 10: the
  // k-th smallest re-scored distance of that multiset would be the nearest
  // distance itself, a θ₀ below the true 10th distance that rejects nine
  // true neighbours. The cache keeps one entry per id, so it certifies no
  // θ₀ and serves no answer from the record.
  constexpr int kTen = 10;
  const auto& pts = TieHeavyPoints();
  const index::LinearScanIndex scan(pts.view());
  const index::BrTree tree(&pts);
  Vector moved = pts[0];
  moved[1] += 0.05;
  const index::EuclideanDistance same(pts[0]);
  const index::EuclideanDistance shifted(moved);
  for (const KnnIndex* index : {static_cast<const KnnIndex*>(&scan),
                                static_cast<const KnnIndex*>(&tree)}) {
    for (const DistanceFunction* dist :
         {static_cast<const DistanceFunction*>(&same),
          static_cast<const DistanceFunction*>(&shifted)}) {
      const std::vector<Neighbor> nearest = index->Search(same, 1);
      index::WarmStart warm;
      warm.Record(same, kTen, index->serial(),
                  std::vector<Neighbor>(kTen, nearest[0]));
      EXPECT_EQ(warm.size(), 1);
      EXPECT_FALSE(warm.Reseed(*dist, kTen, index->serial(), pts.view())
                       .valid());
      EXPECT_EQ(index->SearchWarm(*dist, kTen, warm),
                index->Search(*dist, kTen))
          << (index == &scan ? "scan" : "tree")
          << (dist == &same ? ", same metric" : ", moved query");
    }
  }
}

TEST(WarmExactnessTest, EveryIndexEveryMetricEveryThreadCount) {
  const auto& pts = TieHeavyPoints();
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string threads = p == nullptr ? "t1" : "t4";
    const index::LinearScanIndex scan(pts.view(), p);
    const index::BrTree tree(&pts);

    for (const std::string& family : Families()) {
      const auto rounds = MetricRounds(family);
      const std::string ctx = family + "/" + threads;
      ExpectWarmMatchesCold(scan, rounds, "scan/" + ctx);
      ExpectWarmMatchesCold(tree, rounds, "br_tree/" + ctx, &scan);
    }
  }
}

TEST(WarmExactnessTest, OpaqueMetricRoundsStayExactEverywhere) {
  const auto& pts = TieHeavyPoints();
  // Opaque wrappers around drifting Euclidean queries: no decomposition, no
  // MinDistance — trees lose pruning, and the warm path must still be
  // byte-identical to cold.
  std::vector<std::unique_ptr<index::EuclideanDistance>> bases;
  std::vector<std::unique_ptr<DistanceFunction>> rounds;
  for (int t = 0; t < 4; ++t) {
    Vector q = pts[static_cast<std::size_t>(9 * t)];
    q[2] += 0.05 * t;
    bases.push_back(std::make_unique<index::EuclideanDistance>(q));
    rounds.push_back(std::make_unique<OpaqueMetric>(bases.back().get()));
  }
  const index::LinearScanIndex scan(pts.view());
  const index::BrTree tree(&pts);
  ExpectWarmMatchesCold(scan, rounds, "scan/opaque");
  ExpectWarmMatchesCold(tree, rounds, "br_tree/opaque", &scan);
}

/// The tie-heavy rows plus four rows holding NaN and ±∞ coordinates; at
/// leaf size kHostileRows they share the one leaf.
constexpr int kHostileRows = 454;

const linalg::FlatBlock& HostilePoints() {
  static const auto* pts = [] {
    const auto& base = TieHeavyPoints();
    std::vector<Vector> rows;
    for (std::size_t i = 0; i < base.size(); ++i) rows.push_back(base[i]);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (int h = 0; h < 4; ++h) {
      Vector p = base[static_cast<std::size_t>(7 * h)];
      if (h != 1) p[0] = nan;
      if (h >= 1) p[static_cast<std::size_t>(h)] = h == 2 ? -inf : inf;
      rows.push_back(p);
    }
    return new linalg::FlatBlock(linalg::FlatBlock::FromPoints(rows));
  }();
  return *pts;
}

/// Ids and distance bits equal (Neighbor's == is false on NaN).
bool SameBits(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// BR-tree work on HostilePoints, summed over the five rounds of one
/// family, for a leaf size (kHostileRows: one leaf holds every row): cold
/// Search at k = kK, then a warm session. Pinned from the per-point
/// DistanceRow loop the leaf batches replaced. The warm session runs the
/// cold traversal over its page cache, so it evaluates and visits what
/// cold does and reads only the pages it has not read before.
struct PinnedWork {
  const char* family;
  int leaf_size;
  index::SearchStats cold;
  index::SearchStats warm;
};

// clang-format off
constexpr PinnedWork kPinnedWork[] = {
    {"euclidean", 1, {135, 1005, 135}, {135, 1005, 102}},
    {"euclidean", 7, {1359, 511, 204}, {1359, 511, 68}},
    {"euclidean", 32, {2155, 151, 76}, {2155, 151, 16}},
    {"euclidean", 454, {2270, 5, 5}, {2270, 5, 1}},
    {"weighted", 1, {135, 836, 135}, {135, 836, 57}},
    {"weighted", 7, {1055, 454, 164}, {1055, 454, 58}},
    {"weighted", 32, {2101, 147, 74}, {2101, 147, 16}},
    {"weighted", 454, {2270, 5, 5}, {2270, 5, 1}},
    {"mahalanobis_diag", 1, {135, 913, 135}, {135, 913, 102}},
    {"mahalanobis_diag", 7, {1193, 476, 182}, {1193, 476, 66}},
    {"mahalanobis_diag", 32, {2130, 148, 75}, {2130, 148, 16}},
    {"mahalanobis_diag", 454, {2270, 5, 5}, {2270, 5, 1}},
    {"mahalanobis_full", 1, {399, 1637, 399}, {399, 1637, 249}},
    {"mahalanobis_full", 7, {1869, 627, 285}, {1869, 627, 69}},
    {"mahalanobis_full", 32, {2270, 155, 80}, {2270, 155, 16}},
    {"mahalanobis_full", 454, {2270, 5, 5}, {2270, 5, 1}},
    {"disjunctive", 1, {135, 1385, 135}, {135, 1385, 36}},
    {"disjunctive", 7, {1997, 646, 302}, {1997, 646, 63}},
    {"disjunctive", 32, {2270, 155, 80}, {2270, 155, 16}},
    {"disjunctive", 454, {2270, 5, 5}, {2270, 5, 1}},
    {"disjunctive_full", 1, {2250, 4515, 2250}, {2250, 4515, 450}},
    {"disjunctive_full", 7, {2270, 695, 350}, {2270, 695, 70}},
    {"disjunctive_full", 32, {2270, 155, 80}, {2270, 155, 16}},
    {"disjunctive_full", 454, {2270, 5, 5}, {2270, 5, 1}},
    {"qex", 1, {135, 1226, 135}, {135, 1226, 36}},
    {"qex", 7, {1701, 587, 258}, {1701, 587, 56}},
    {"qex", 32, {2270, 155, 80}, {2270, 155, 16}},
    {"qex", 454, {2270, 5, 5}, {2270, 5, 1}},
    {"falcon", 1, {135, 1055, 135}, {135, 1055, 99}},
    {"falcon", 7, {1498, 557, 226}, {1498, 557, 67}},
    {"falcon", 32, {2270, 155, 80}, {2270, 155, 16}},
    {"falcon", 454, {2270, 5, 5}, {2270, 5, 1}},
    {"row_only", 1, {2270, 4535, 2270}, {2270, 4535, 454}},
    {"row_only", 7, {2270, 695, 350}, {2270, 695, 70}},
    {"row_only", 32, {2270, 155, 80}, {2270, 155, 16}},
    {"row_only", 454, {2270, 5, 5}, {2270, 5, 1}},
};
// clang-format on

TEST(WarmExactnessTest, LeafBatchesMatchSerialScanBitsAndPinnedWork) {
  const auto& pts = HostilePoints();
  ASSERT_EQ(static_cast<int>(pts.size()), kHostileRows);
  ThreadPool serial(1);
  const index::LinearScanIndex scan(pts.view(), &serial);
  std::size_t row = 0;
  for (const std::string& family : Families()) {
    const auto rounds = MetricRounds(family);
    for (int leaf_size : {1, 7, 32, kHostileRows}) {
      const std::string ctx = family + "/leaf" + std::to_string(leaf_size);
      index::BrTree::Options opt;
      opt.leaf_size = leaf_size;
      const index::BrTree tree(&pts, opt);
      index::SearchStats cold;
      index::SearchStats warm;
      index::WarmStart cache;
      for (std::size_t t = 0; t < rounds.size(); ++t) {
        const DistanceFunction& dist = *rounds[t];
        const std::vector<Neighbor> expected = scan.Search(dist, kK);
        EXPECT_TRUE(SameBits(tree.Search(dist, kK, &cold), expected))
            << ctx << " cold round " << t;
        EXPECT_TRUE(SameBits(tree.SearchWarm(dist, kK, cache, &warm), expected))
            << ctx << " warm round " << t;
      }
      // Every row ranked, NaN and ±∞ distances included.
      EXPECT_TRUE(SameBits(tree.Search(*rounds[0], kHostileRows),
                           scan.Search(*rounds[0], kHostileRows)))
          << ctx << " k = n";

      const PinnedWork* pin =
          row < std::size(kPinnedWork) ? &kPinnedWork[row] : nullptr;
      ++row;
      const auto same = [](const index::SearchStats& a,
                           const index::SearchStats& b) {
        return a.distance_evaluations == b.distance_evaluations &&
               a.nodes_visited == b.nodes_visited &&
               a.leaves_visited == b.leaves_visited;
      };
      // The page cache saves reads, never evaluations or node visits.
      EXPECT_LE(warm.distance_evaluations, cold.distance_evaluations) << ctx;
      EXPECT_EQ(warm.nodes_visited, cold.nodes_visited) << ctx;
      // On a mismatch the message is this case's row as it would be pinned.
      EXPECT_TRUE(pin != nullptr && family == pin->family &&
                  leaf_size == pin->leaf_size && same(cold, pin->cold) &&
                  same(warm, pin->warm))
          << "    {\"" << family << "\", " << leaf_size << ", {"
          << cold.distance_evaluations << ", " << cold.nodes_visited << ", "
          << cold.leaves_visited << "}, {" << warm.distance_evaluations
          << ", " << warm.nodes_visited << ", " << warm.leaves_visited
          << "}},";
    }
  }
  EXPECT_EQ(row, std::size(kPinnedWork));
}

TEST(WarmExactnessTest, CacheRecordedByAnotherIndexStaysExact) {
  // Two trees over one block: their node indices name different leaf
  // pages, so B must not skip its own pages that share an index with a
  // page A cached. A scan records no pages at all.
  Rng rng(5021);
  std::vector<Vector> rows;
  for (int i = 0; i < 4000; ++i) rows.push_back(rng.GaussianVector(3));
  const linalg::FlatBlock pts = linalg::FlatBlock::FromPoints(rows);
  index::BrTree::Options small;
  small.leaf_size = 5;
  const index::BrTree tree_a(&pts);
  const index::BrTree tree_b(&pts, small);
  const index::LinearScanIndex scan(pts.view());
  constexpr int kSearchK = 100;
  for (const KnnIndex* recorder : {static_cast<const KnnIndex*>(&tree_a),
                                   static_cast<const KnnIndex*>(&scan)}) {
    for (int q = 0; q < 20; ++q) {
      index::WarmStart warm;
      const Vector qa = rng.GaussianVector(3);
      DiscardResult(recorder->SearchWarm(index::EuclideanDistance(qa),
                                         kSearchK, warm));
      Vector qa2 = qa;
      qa2[0] += 0.05;
      DiscardResult(recorder->SearchWarm(index::EuclideanDistance(qa2),
                                         kSearchK, warm));
      const index::EuclideanDistance qb(rng.GaussianVector(3));
      EXPECT_EQ(tree_b.SearchWarm(qb, kSearchK, warm),
                tree_b.Search(qb, kSearchK))
          << (recorder == &scan ? "scan" : "tree A") << " query " << q;
      // B's own pages now stand in the cache and are used again.
      EXPECT_EQ(tree_b.SearchWarm(qb, kSearchK, warm),
                tree_b.Search(qb, kSearchK));
    }
  }
}

/// The families whose metrics have a decomposition: the only ones a
/// WarmStart can key.
bool Keyed(const std::string& family) {
  return family != "qex" && family != "falcon" && family != "row_only";
}

TEST(WarmReuseTest, ReusedAnswerEqualsColdSearchWithNoWork) {
  // Every round is asked twice: once fresh, then under the same metric
  // rebuilt from the same inputs. The second ask must return the cold
  // answer (ids and distance bits) without evaluating a distance or
  // visiting a node; an opaque metric has no key and is searched again.
  const auto& pts = TieHeavyPoints();
  ThreadPool pool(4);
  index::BrTree::Options single;
  single.leaf_size = 1;
  const index::BrTree tree1(&pts, single);
  const index::BrTree tree32(&pts);
  const index::LinearScanIndex scan1(pts.view());
  const index::LinearScanIndex scan4(pts.view(), &pool);
  const std::pair<const char*, const KnnIndex*> indexes[] = {
      {"br_tree/leaf1", &tree1},
      {"br_tree/leaf32", &tree32},
      {"scan/t1", &scan1},
      {"scan/t4", &scan4}};
  for (const auto& [name, index] : indexes) {
    for (const std::string& family : Families()) {
      const auto rounds = MetricRounds(family);
      const auto again = MetricRounds(family);
      index::WarmStart warm;
      for (std::size_t t = 0; t < rounds.size(); ++t) {
        const std::string ctx = std::string(name) + "/" + family + "/round" +
                                std::to_string(t);
        const std::vector<Neighbor> cold = index->Search(*rounds[t], kK);
        EXPECT_TRUE(SameBits(index->SearchWarm(*rounds[t], kK, warm), cold))
            << ctx;
        index::SearchStats stats;
        EXPECT_TRUE(SameBits(index->SearchWarm(*again[t], kK, warm, &stats),
                             cold))
            << ctx << " (asked again)";
        EXPECT_EQ(NoWork(stats), Keyed(family)) << ctx;
      }
    }
  }
}

TEST(WarmReuseTest, ReuseAllocatesOnlyTheReturnedAnswer) {
  // A round under an unchanged metric compares its decomposition in place
  // and copies the recorded answer out: one allocation, the returned
  // vector, however many terms the metric has.
  const auto& pts = TieHeavyPoints();
  const index::BrTree tree(&pts);
  const index::LinearScanIndex scan(pts.view());
  const DisjunctiveDistance disjunctive = MakeDisjunctive(0, 18);
  const DisjunctiveDistance disjunctive_again = MakeDisjunctive(0, 18);
  const index::EuclideanDistance euclidean(pts[0]);
  const index::EuclideanDistance euclidean_again(pts[0]);
  const std::pair<const DistanceFunction*, const DistanceFunction*> pairs[] =
      {{&disjunctive, &disjunctive_again}, {&euclidean, &euclidean_again}};
  const bool metrics = MetricsEnabled();
  SetMetricsEnabled(false);  // A reuse counter must not allocate its name.
  for (const KnnIndex* index : {static_cast<const KnnIndex*>(&tree),
                                static_cast<const KnnIndex*>(&scan)}) {
    const std::string name = index == &scan ? "scan" : "br_tree";
    for (const auto& [first, again] : pairs) {
      index::WarmStart warm;
      DiscardResult(index->SearchWarm(*first, kK, warm));
      const long long before = g_alloc_count.load(std::memory_order_relaxed);
      const std::vector<Neighbor> reused = index->SearchWarm(*again, kK, warm);
      const long long after = g_alloc_count.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 1) << name;
      EXPECT_EQ(reused, index->Search(*again, kK)) << name;
    }
  }
  SetMetricsEnabled(metrics);
}

TEST(WarmReuseTest, NoReuseUnlessIndexKAndKeyAllMatch) {
  // Pairs of metrics one ulp apart in one field of their decomposition,
  // then the same metric under another k, after Clear, or recorded by
  // another index: each second ask must search, and find the cold answer.
  const auto& pts = TieHeavyPoints();
  const index::LinearScanIndex scan(pts.view());
  const index::BrTree tree(&pts);
  const index::BrTree other_tree(&pts);
  const double up = std::numeric_limits<double>::infinity();

  // A query coordinate (a centroid) one ulp off.
  const Vector q = pts[4];
  Vector q_ulp = q;
  q_ulp[2] = std::nextafter(q_ulp[2], up);
  // A diagonal entry one ulp off.
  Vector w(kDim, 1.5);
  Vector w_ulp = w;
  w_ulp[5] = std::nextafter(w_ulp[5], up);
  // A cluster weight mᵢ one ulp off: one-point clusters keep their centroid
  // and floored variance whatever the point's score.
  const auto weighted_clusters = [&](double score) {
    std::vector<Cluster> clusters;
    for (int c = 0; c < 2; ++c) {
      Cluster cluster(kDim);
      cluster.Add(pts[static_cast<std::size_t>(60 * c + 3)],
                  c == 0 ? score : 2.0);
      clusters.push_back(std::move(cluster));
    }
    return DisjunctiveDistance(clusters, stats::CovarianceScheme::kDiagonal,
                               1e-4);
  };
  struct Case {
    const char* what;
    std::unique_ptr<DistanceFunction> first;
    std::unique_ptr<DistanceFunction> second;
  };
  std::vector<Case> cases;
  cases.push_back({"centroid", std::make_unique<index::EuclideanDistance>(q),
                   std::make_unique<index::EuclideanDistance>(q_ulp)});
  cases.push_back(
      {"diagonal",
       std::make_unique<index::MahalanobisDistance>(
           q, linalg::Matrix::Diagonal(w)),
       std::make_unique<index::MahalanobisDistance>(
           q, linalg::Matrix::Diagonal(w_ulp))});
  cases.push_back(
      {"weight", std::make_unique<DisjunctiveDistance>(weighted_clusters(1.0)),
       std::make_unique<DisjunctiveDistance>(
           weighted_clusters(std::nextafter(1.0, up)))});
  const index::QuadraticDecomposition* a = cases.back().first->decomposition();
  const index::QuadraticDecomposition* b =
      cases.back().second->decomposition();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->components.size(), 2u);
  EXPECT_EQ(a->components[0].query, b->components[0].query);
  EXPECT_EQ(a->components[0].diagonal, b->components[0].diagonal);
  EXPECT_NE(a->components[0].weight, b->components[0].weight);

  for (const KnnIndex* index : {static_cast<const KnnIndex*>(&scan),
                                static_cast<const KnnIndex*>(&tree)}) {
    const std::string name = index == &scan ? "scan" : "br_tree";
    for (const Case& c : cases) {
      index::WarmStart warm;
      DiscardResult(index->SearchWarm(*c.first, kK, warm));
      index::SearchStats stats;
      EXPECT_EQ(index->SearchWarm(*c.second, kK, warm, &stats),
                index->Search(*c.second, kK))
          << name << "/" << c.what;
      EXPECT_GT(stats.distance_evaluations, 0) << name << "/" << c.what;
    }
    const index::EuclideanDistance dist(q);
    const auto asked_again = [&](index::WarmStart& warm, int k) {
      index::SearchStats stats;
      EXPECT_EQ(index->SearchWarm(dist, k, warm, &stats),
                index->Search(dist, k))
          << name << " k = " << k;
      return stats.distance_evaluations > 0;
    };
    // Another k.
    index::WarmStart warm;
    DiscardResult(index->SearchWarm(dist, kK, warm));
    EXPECT_TRUE(asked_again(warm, kK - 1)) << name;
    // After Clear.
    DiscardResult(index->SearchWarm(dist, kK, warm));
    warm.Clear();
    EXPECT_TRUE(asked_again(warm, kK)) << name;
    // The same metric and k, but the answer of another index over the same
    // block: a second tree, or the scan for the tree and the tree for the
    // scan.
    for (const KnnIndex* recorder :
         {static_cast<const KnnIndex*>(&other_tree),
          index == &scan ? static_cast<const KnnIndex*>(&tree)
                         : static_cast<const KnnIndex*>(&scan)}) {
      index::WarmStart foreign;
      DiscardResult(recorder->SearchWarm(dist, kK, foreign));
      EXPECT_TRUE(asked_again(foreign, kK)) << name;
    }
    // And the control: the same index, k and metric reuse.
    EXPECT_FALSE(asked_again(warm, kK)) << name;
  }
}

/// Restores the dispatch default even when an assertion fails mid-test.
class WarmSimdTest : public ::testing::Test {
 protected:
  ~WarmSimdTest() override { linalg::simd::ResetTierFromEnv(); }
};

TEST_F(WarmSimdTest, TiersAgreeWithScalarColdRounds) {
  const auto& pts = TieHeavyPoints();
  const index::LinearScanIndex scan(pts.view());

  // Scalar-tier cold results are the cross-tier reference.
  ASSERT_TRUE(linalg::simd::SetTier(Tier::kScalar));
  std::vector<std::vector<std::vector<Neighbor>>> reference;
  for (const std::string& family : Families()) {
    const auto rounds = MetricRounds(family);
    std::vector<std::vector<Neighbor>> per_round;
    for (const auto& dist : rounds) per_round.push_back(scan.Search(*dist, kK));
    reference.push_back(std::move(per_round));
  }

  for (Tier tier : {Tier::kScalar, Tier::kWidth2, Tier::kWidth4}) {
    if (!linalg::simd::SetTier(tier)) continue;
    for (std::size_t f = 0; f < Families().size(); ++f) {
      const auto rounds = MetricRounds(Families()[f]);
      index::WarmStart warm_scan;
      for (std::size_t t = 0; t < rounds.size(); ++t) {
        const std::string ctx = Families()[f] + "/" +
                                linalg::simd::TierName(tier) + "/round" +
                                std::to_string(t);
        EXPECT_EQ(scan.SearchWarm(*rounds[t], kK, warm_scan), reference[f][t])
            << "scan/" << ctx;
      }
    }
  }
}

}  // namespace
}  // namespace qcluster
