// The feedback front end every method shares (core::RetrievalMethod): the
// same marks are accepted, rejected and deduplicated the same way by
// Qcluster, QPM, QEX, FALCON and MindReader.
#include "core/retrieval_method.h"

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "baselines/falcon.h"
#include "baselines/mindreader.h"
#include "baselines/qex.h"
#include "baselines/qpm.h"
#include "common/rng.h"
#include "core/engine.h"
#include "index/linear_scan.h"

namespace qcluster::core {
namespace {

using linalg::Vector;

constexpr int kPoints = 120;
constexpr int kK = 15;

struct MethodCase {
  std::string name;
  std::function<std::unique_ptr<RetrievalMethod>(const linalg::FlatBlock*,
                                                 const index::KnnIndex*)>
      make;
};

void PrintTo(const MethodCase& c, std::ostream* os) { *os << c.name; }

std::vector<MethodCase> AllMethods() {
  return {
      {"qcluster",
       [](const linalg::FlatBlock* db, const index::KnnIndex* knn) {
         QclusterOptions opt;
         opt.k = kK;
         return std::unique_ptr<RetrievalMethod>(
             std::make_unique<QclusterEngine>(db, knn, opt));
       }},
      {"qpm",
       [](const linalg::FlatBlock* db, const index::KnnIndex* knn) {
         baselines::QpmOptions opt;
         opt.k = kK;
         return std::unique_ptr<RetrievalMethod>(
             std::make_unique<baselines::QueryPointMovement>(db, knn, opt));
       }},
      {"qex",
       [](const linalg::FlatBlock* db, const index::KnnIndex* knn) {
         baselines::QexOptions opt;
         opt.k = kK;
         return std::unique_ptr<RetrievalMethod>(
             std::make_unique<baselines::QueryExpansion>(db, knn, opt));
       }},
      {"falcon",
       [](const linalg::FlatBlock* db, const index::KnnIndex* knn) {
         baselines::FalconOptions opt;
         opt.k = kK;
         return std::unique_ptr<RetrievalMethod>(
             std::make_unique<baselines::Falcon>(db, knn, opt));
       }},
      {"mindreader",
       [](const linalg::FlatBlock* db, const index::KnnIndex* knn) {
         baselines::MindReaderOptions opt;
         opt.k = kK;
         return std::unique_ptr<RetrievalMethod>(
             std::make_unique<baselines::MindReader>(db, knn, opt));
       }},
  };
}

class FeedbackFrontEndTest : public ::testing::TestWithParam<MethodCase> {
 protected:
  FeedbackFrontEndTest() {
    Rng rng(2603);
    std::vector<Vector> rows;
    for (int i = 0; i < kPoints; ++i) rows.push_back(rng.GaussianVector(3));
    points_ = linalg::FlatBlock::FromPoints(rows);
    index_ = std::make_unique<index::LinearScanIndex>(points_.view());
  }

  /// A method of the parameter's kind after its initial query around
  /// point 0.
  std::unique_ptr<RetrievalMethod> Started() const {
    std::unique_ptr<RetrievalMethod> method =
        GetParam().make(&points_, index_.get());
    (void)method->InitialQuery(points_[0]);
    return method;
  }

  linalg::FlatBlock points_;
  std::unique_ptr<index::LinearScanIndex> index_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST_P(FeedbackFrontEndTest, IdOutsideTheDatabaseAborts) {
  EXPECT_DEATH((void)Started()->Feedback({{1, 1.0}, {kPoints, 1.0}}),
               "database");
  EXPECT_DEATH((void)Started()->Feedback({{-1, 1.0}}), "database");
}

TEST_P(FeedbackFrontEndTest, ZeroOrNanScoreAborts) {
  EXPECT_DEATH((void)Started()->Feedback({{1, 1.0}, {2, 0.0}}), "score");
  EXPECT_DEATH(
      (void)Started()->Feedback(
          {{1, std::numeric_limits<double>::quiet_NaN()}}),
      "score");
  // +inf passes "> 0" but turns the cluster's Welford step into inf/inf.
  EXPECT_DEATH((void)Started()->Feedback(
                   {{1, std::numeric_limits<double>::infinity()}, {2, 1.0}}),
               "score");
}

TEST_P(FeedbackFrontEndTest, FirstFeedbackWithoutMarksAborts) {
  EXPECT_DEATH((void)Started()->Feedback({}), "relevant");
}

TEST_P(FeedbackFrontEndTest, RemarkingASeenIdChangesNothing) {
  // Round 2 re-marks ids 3 and 5 (with other scores) next to a new one:
  // the session must answer as if only the new mark had been made.
  std::unique_ptr<RetrievalMethod> once = Started();
  std::unique_ptr<RetrievalMethod> again = Started();
  (void)once->Feedback({{3, 1.0}, {5, 2.0}});
  (void)again->Feedback({{3, 1.0}, {5, 2.0}});
  const std::vector<index::Neighbor> expected = once->Feedback({{8, 1.5}});
  const std::vector<index::Neighbor> actual =
      again->Feedback({{5, 4.0}, {8, 1.5}, {3, 0.5}});

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << "rank " << i;
    EXPECT_TRUE(SameBits(actual[i].distance, expected[i].distance))
        << "rank " << i;
  }
  EXPECT_EQ(again->last_search_stats().distance_evaluations,
            once->last_search_stats().distance_evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, FeedbackFrontEndTest, ::testing::ValuesIn(AllMethods()),
    [](const ::testing::TestParamInfo<MethodCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace qcluster::core
