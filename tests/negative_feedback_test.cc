// Tests for the negative-feedback (Rocchio γ) extension of the QPM
// baseline and the oracle's implicit negative set.

#include <gtest/gtest.h>

#include "baselines/qpm.h"
#include "common/rng.h"
#include "eval/oracle.h"
#include "index/linear_scan.h"

namespace qcluster {
namespace {

using baselines::QpmOptions;
using baselines::QueryPointMovement;
using linalg::Vector;

TEST(NegativeFeedbackTest, QueryMovesAwayFromNegatives) {
  // Relevant at x=+4, non-relevant at x=-4: with negatives the query ends
  // farther right than without.
  const std::vector<Vector> points{{4.0, 0.0}, {-4.0, 0.0}};
  const auto block = linalg::FlatBlock::FromPoints(points);
  const index::LinearScanIndex idx(block.view());
  QpmOptions opt;
  opt.k = 2;

  QueryPointMovement plain(&block, &idx, opt);
  plain.InitialQuery({0.0, 0.0});
  plain.Feedback({{0, 1.0}});
  const double plain_x = plain.query_point()[0];

  QueryPointMovement with_neg(&block, &idx, opt);
  with_neg.InitialQuery({0.0, 0.0});
  with_neg.FeedbackWithNegatives({{0, 1.0}}, {1});
  EXPECT_GT(with_neg.query_point()[0], plain_x);
}

TEST(NegativeFeedbackTest, EmptyNegativesMatchesPlainFeedback) {
  Rng rng(281);
  std::vector<Vector> points;
  for (int i = 0; i < 30; ++i) points.push_back(rng.GaussianVector(2));
  const auto block = linalg::FlatBlock::FromPoints(points);
  const index::LinearScanIndex idx(block.view());
  QpmOptions opt;
  opt.k = 10;
  QueryPointMovement a(&block, &idx, opt);
  QueryPointMovement b(&block, &idx, opt);
  a.InitialQuery(points[0]);
  b.InitialQuery(points[0]);
  const auto ra = a.Feedback({{1, 1.0}, {2, 2.0}});
  const auto rb = b.FeedbackWithNegatives({{1, 1.0}, {2, 2.0}}, {});
  EXPECT_EQ(ra, rb);
  EXPECT_TRUE(linalg::AllClose(a.query_point(), b.query_point(), 1e-12));
}

TEST(NegativeFeedbackTest, GammaZeroIgnoresNegatives) {
  const std::vector<Vector> points{{4.0, 0.0}, {-4.0, 0.0}};
  const auto block = linalg::FlatBlock::FromPoints(points);
  const index::LinearScanIndex idx(block.view());
  QpmOptions opt;
  opt.k = 2;
  opt.rocchio_gamma = 0.0;
  QueryPointMovement a(&block, &idx, opt);
  QueryPointMovement b(&block, &idx, opt);
  a.InitialQuery({0.0, 0.0});
  b.InitialQuery({0.0, 0.0});
  a.Feedback({{0, 1.0}});
  b.FeedbackWithNegatives({{0, 1.0}}, {1});
  EXPECT_TRUE(linalg::AllClose(a.query_point(), b.query_point(), 1e-12));
}

TEST(OracleNegativesTest, PartitionsResultSet) {
  const std::vector<int> categories{0, 0, 1, 2};
  const std::vector<int> themes{0, 0, 0, 1};
  eval::OracleUser oracle(&categories, &themes, eval::OracleOptions{});
  std::vector<index::Neighbor> result;
  for (int i = 0; i < 4; ++i) result.push_back({i, static_cast<double>(i)});
  const auto judgement = oracle.JudgeWithNegatives(result, 0, 0);
  // ids 0,1 same category; id 2 same theme; id 3 negative.
  EXPECT_EQ(judgement.relevant.size(), 3u);
  ASSERT_EQ(judgement.non_relevant.size(), 1u);
  EXPECT_EQ(judgement.non_relevant[0], 3);
}

TEST(OracleNegativesTest, ThemeDisabledMakesThemeImagesNegative) {
  const std::vector<int> categories{0, 1};
  const std::vector<int> themes{0, 0};
  eval::OracleOptions opt;
  opt.same_theme_score = 0.0;
  eval::OracleUser oracle(&categories, &themes, opt);
  std::vector<index::Neighbor> result{{0, 0.0}, {1, 1.0}};
  const auto judgement = oracle.JudgeWithNegatives(result, 0, 0);
  EXPECT_EQ(judgement.relevant.size(), 1u);
  ASSERT_EQ(judgement.non_relevant.size(), 1u);
  EXPECT_EQ(judgement.non_relevant[0], 1);
}

}  // namespace
}  // namespace qcluster
