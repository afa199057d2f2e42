#include "core/invariants.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "index/knn.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "stats/covariance_scheme.h"
#include "stats/weighted_stats.h"

namespace qcluster {
namespace {

using core::ValidateDisjunctiveAggregate;
using core::ValidateHotellingT2;
using core::ValidateMergeClosure;
using core::ValidateSortedNeighbors;
using core::ValidateSymmetricPsd;
using linalg::Matrix;
using linalg::Vector;

long long Violations() {
  return MetricsRegistry::Global().CounterValue("audit.violations");
}

/// Enables auditing for the test body and restores the off state after.
class AuditEnabledTest : public ::testing::Test {
 protected:
  void SetUp() override { SetAuditEnabled(true); }
  void TearDown() override { SetAuditEnabled(false); }
};

// ---------------------------------------------------------------------------
// Validators as plain functions (independent of build mode and toggle).

TEST(ValidateSymmetricPsdTest, AcceptsIdentity) {
  Matrix id(3, 3, 0.0);
  for (int i = 0; i < 3; ++i) id(i, i) = 1.0;
  EXPECT_TRUE(ValidateSymmetricPsd(id, "test").ok());
}

TEST(ValidateSymmetricPsdTest, AcceptsSingularPsd) {
  // Rank-1 PSD: outer product of (1, 2).
  Matrix m(2, 2, 0.0);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 2.0;
  m(1, 1) = 4.0;
  EXPECT_TRUE(ValidateSymmetricPsd(m, "test").ok());
}

TEST(ValidateSymmetricPsdTest, RejectsAsymmetry) {
  Matrix m(2, 2, 0.0);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  m(0, 1) = 0.5;
  m(1, 0) = 0.25;
  const Status s = ValidateSymmetricPsd(m, "test");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Eq. 7/10"), std::string::npos);
}

TEST(ValidateSymmetricPsdTest, RejectsIndefinite) {
  Matrix m(2, 2, 0.0);
  m(0, 0) = 1.0;
  m(1, 1) = -1.0;  // Seeded non-PSD covariance.
  const Status s = ValidateSymmetricPsd(m, "test");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("semi-definiteness"), std::string::npos);
}

TEST(ValidateSymmetricPsdTest, RejectsNanAndInfiniteEntriesAlike) {
  // std::max drops a NaN operand, so an entry-folding check passed a NaN
  // diagonal that it rejected as +inf.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Matrix m(2, 2, 0.0);
    m(0, 0) = bad;
    m(1, 1) = 1.0;
    const Status s = ValidateSymmetricPsd(m, "test");
    ASSERT_FALSE(s.ok()) << bad;
    EXPECT_NE(s.message().find("non-finite"), std::string::npos) << bad;
  }
}

const Vector kFiniteDiff = {1.0, -2.0};
const Matrix kFiniteInverse = Matrix::Identity(2);

TEST(ValidateHotellingT2Test, AcceptsNonNegative) {
  EXPECT_TRUE(ValidateHotellingT2(0.0, 4.0, kFiniteDiff, kFiniteInverse).ok());
  EXPECT_TRUE(
      ValidateHotellingT2(12.5, 4.0, kFiniteDiff, kFiniteInverse).ok());
}

TEST(ValidateHotellingT2Test, RejectsNegativeT2AndZeroWeight) {
  EXPECT_FALSE(
      ValidateHotellingT2(-1.0, 4.0, kFiniteDiff, kFiniteInverse).ok());
  EXPECT_FALSE(ValidateHotellingT2(1.0, 0.0, kFiniteDiff, kFiniteInverse).ok());
}

TEST(ValidateHotellingT2Test, NanOnlyFromNonFiniteInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // +∞ is the non-negative form overflowing; −∞ is still negative.
  EXPECT_TRUE(ValidateHotellingT2(inf, 4.0, kFiniteDiff, kFiniteInverse).ok());
  EXPECT_FALSE(
      ValidateHotellingT2(-inf, 4.0, kFiniteDiff, kFiniteInverse).ok());
  EXPECT_FALSE(
      ValidateHotellingT2(nan, 4.0, kFiniteDiff, kFiniteInverse).ok());
  EXPECT_TRUE(ValidateHotellingT2(nan, 4.0, {nan, 0.0}, kFiniteInverse).ok());
  Matrix infinite_inverse = kFiniteInverse;
  infinite_inverse(1, 1) = inf;
  EXPECT_TRUE(
      ValidateHotellingT2(nan, 4.0, kFiniteDiff, infinite_inverse).ok());
}

TEST(ValidateSortedNeighborsTest, AcceptsStrictOrderWithIdTiebreak) {
  const std::vector<index::Neighbor> v = {
      {3, 1.0}, {1, 2.0}, {2, 2.0}, {0, 5.0}};
  EXPECT_TRUE(ValidateSortedNeighbors(v, "test").ok());
}

TEST(ValidateSortedNeighborsTest, RejectsDisorderAndBrokenTiebreak) {
  const std::vector<index::Neighbor> unsorted = {{0, 2.0}, {1, 1.0}};
  EXPECT_FALSE(ValidateSortedNeighbors(unsorted, "test").ok());
  const std::vector<index::Neighbor> bad_tie = {{2, 1.0}, {1, 1.0}};
  EXPECT_FALSE(ValidateSortedNeighbors(bad_tie, "test").ok());
  const std::vector<index::Neighbor> dup = {{1, 1.0}, {1, 1.0}};
  EXPECT_FALSE(ValidateSortedNeighbors(dup, "test").ok());
}

TEST(ValidateMergeClosureTest, AcceptsRealMerge) {
  const std::vector<Vector> pa = {{1.0, 2.0}, {3.0, 1.0}};
  const std::vector<Vector> pb = {{-1.0, 0.5}, {2.0, 2.0}, {0.0, 0.0}};
  const stats::WeightedStats a =
      stats::WeightedStats::FromPoints(pa, {0.5, 1.5});
  const stats::WeightedStats b =
      stats::WeightedStats::FromPoints(pb, {1.0, 2.0, 0.25});
  const stats::WeightedStats merged = stats::WeightedStats::Merged(a, b);
  EXPECT_TRUE(ValidateMergeClosure(a, b, merged).ok());
}

TEST(ValidateMergeClosureTest, RejectsBrokenClosure) {
  const std::vector<Vector> pa = {{1.0, 2.0}};
  const std::vector<Vector> pb = {{3.0, -1.0}};
  const stats::WeightedStats a = stats::WeightedStats::FromPoints(pa);
  const stats::WeightedStats b = stats::WeightedStats::FromPoints(pb);
  // A summary over different points with the same total weight: Eq. 12
  // (mean combination) cannot close.
  const stats::WeightedStats impostor = stats::WeightedStats::FromPoints(
      std::vector<Vector>{{5.0, 5.0}, {6.0, 6.0}});
  const Status s = ValidateMergeClosure(a, b, impostor);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Eq. 12"), std::string::npos);
}

TEST(ValidateDisjunctiveAggregateTest, AcceptsHarmonicMean) {
  const double d2[] = {1.0, 4.0};
  const double w[] = {1.0, 1.0};
  // W / Σ w_i/d²_i = 2 / 1.25 = 1.6 ∈ [1, 4].
  EXPECT_TRUE(ValidateDisjunctiveAggregate(d2, w, 2, 2.0, 1.6).ok());
}

TEST(ValidateDisjunctiveAggregateTest, ZeroDistanceMeansZeroAggregate) {
  const double d2[] = {0.0, 4.0};
  const double w[] = {1.0, 1.0};
  EXPECT_TRUE(ValidateDisjunctiveAggregate(d2, w, 2, 2.0, 0.0).ok());
  EXPECT_FALSE(ValidateDisjunctiveAggregate(d2, w, 2, 2.0, 1.0).ok());
}

TEST(ValidateDisjunctiveAggregateTest, RejectsOutOfBoundsAndNegativeInputs) {
  const double d2[] = {1.0, 4.0};
  const double w[] = {1.0, 1.0};
  EXPECT_FALSE(ValidateDisjunctiveAggregate(d2, w, 2, 2.0, 8.0).ok());
  EXPECT_FALSE(ValidateDisjunctiveAggregate(d2, w, 2, 2.0, 0.5).ok());
  const double neg[] = {-1.0, 4.0};
  const Status s = ValidateDisjunctiveAggregate(neg, w, 2, 2.0, 1.0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Eq. 4/5"), std::string::npos);
}

TEST(ValidateDisjunctiveAggregateTest, NanDistanceMeansNanAggregate) {
  // What DisjunctiveDistance computes for a NaN feature row: a NaN d²
  // poisons the harmonic sum, unless a zero d² already decided it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double w[] = {1.0, 1.0};
  const double poisoned[] = {nan, 4.0};
  EXPECT_TRUE(ValidateDisjunctiveAggregate(poisoned, w, 2, 2.0, nan).ok());
  EXPECT_TRUE(ValidateDisjunctiveAggregate(poisoned, w, 2, 2.0, -nan).ok());
  const double decided[] = {nan, 0.0};
  EXPECT_TRUE(ValidateDisjunctiveAggregate(decided, w, 2, 2.0, 0.0).ok());
}

TEST(ValidateDisjunctiveAggregateTest, RejectsNanWhereTheInputsAllowNone) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double w[] = {1.0, 1.0};
  // A finite result from a NaN d², and a NaN one beside a zero d².
  const double poisoned[] = {4.0, nan};
  EXPECT_FALSE(ValidateDisjunctiveAggregate(poisoned, w, 2, 2.0, 1.6).ok());
  const double decided[] = {0.0, nan};
  EXPECT_FALSE(ValidateDisjunctiveAggregate(decided, w, 2, 2.0, nan).ok());
  // A NaN result from NaN-free inputs, and a negative d² beside a NaN.
  const double clean[] = {1.0, 4.0};
  EXPECT_FALSE(ValidateDisjunctiveAggregate(clean, w, 2, 2.0, nan).ok());
  const double negative[] = {nan, -1.0};
  EXPECT_FALSE(ValidateDisjunctiveAggregate(negative, w, 2, 2.0, nan).ok());
}

// ---------------------------------------------------------------------------
// The QCLUSTER_AUDIT macro: runtime toggle, reporting, Release no-op.

TEST(AuditMacroTest, DisabledAuditNeverEvaluatesTheValidator) {
  SetAuditEnabled(false);
  int calls = 0;
  QCLUSTER_AUDIT((++calls, Status::FailedPrecondition("seeded")));
  EXPECT_EQ(calls, 0);
}

#ifndef NDEBUG

TEST(AuditMacroTest, EnabledAuditReportsViolations) {
  const long long before = Violations();
  SetAuditEnabled(true);
  int calls = 0;
  QCLUSTER_AUDIT((++calls, Status::OK()));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(Violations(), before);  // OK validators report nothing.
  QCLUSTER_AUDIT(Status::FailedPrecondition("seeded violation"));
  EXPECT_EQ(Violations(), before + 1);
  SetAuditEnabled(false);
}

TEST_F(AuditEnabledTest, WiredNonPsdCovarianceIsCounted) {
  const long long before = Violations();
  Matrix bad(2, 2, 0.0);
  bad(0, 0) = 1.0;
  bad(1, 1) = -1.0;  // Seeded non-PSD covariance entering classification.
  // Called for its audit side effect; the inverse itself is irrelevant.
  DiscardResult(stats::InvertCovariance(bad, stats::CovarianceScheme::kInverse));
  EXPECT_GT(Violations(), before);
}

TEST_F(AuditEnabledTest, WiredPsdCovarianceIsClean) {
  const long long before = Violations();
  Matrix good(2, 2, 0.0);
  good(0, 0) = 2.0;
  good(1, 1) = 3.0;
  good(0, 1) = good(1, 0) = 1.0;
  // Called for its audit side effect; the inverse itself is irrelevant.
  DiscardResult(stats::InvertCovariance(good, stats::CovarianceScheme::kInverse));
  EXPECT_EQ(Violations(), before);
}

TEST(DCheckDeathTest, FiresInDebugBuilds) {
  EXPECT_DEATH(QCLUSTER_DCHECK(1 + 1 == 3), "QCLUSTER_CHECK failed");
  EXPECT_DEATH(QCLUSTER_DCHECK_MSG(false, "the message"), "the message");
}

#else  // NDEBUG: the whole layer must compile to a no-op.

TEST(AuditMacroTest, ReleaseNeverEvaluatesEvenWhenEnabled) {
  const long long before = Violations();
  SetAuditEnabled(true);
  int calls = 0;
  QCLUSTER_AUDIT((++calls, Status::FailedPrecondition("seeded")));
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(Violations(), before);
  SetAuditEnabled(false);
}

TEST(DCheckTest, ReleaseNeitherAbortsNorEvaluates) {
  QCLUSTER_DCHECK(1 + 1 == 3);  // Must not abort.
  QCLUSTER_DCHECK_MSG(false, "unused");
  bool evaluated = false;
  QCLUSTER_DCHECK((evaluated = true));
  EXPECT_FALSE(evaluated);
}

#endif

TEST(AuditToggleTest, SetAuditEnabledRoundTrips) {
  SetAuditEnabled(true);
  EXPECT_TRUE(AuditEnabled());
  SetAuditEnabled(false);
  EXPECT_FALSE(AuditEnabled());
}

}  // namespace
}  // namespace qcluster
