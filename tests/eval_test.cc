#include <set>

#include <gtest/gtest.h>

#include "baselines/qpm.h"
#include "common/rng.h"
#include "core/engine.h"
#include "eval/metrics.h"
#include "eval/oracle.h"
#include "eval/simulator.h"
#include "index/linear_scan.h"

namespace qcluster::eval {
namespace {

using index::Neighbor;
using linalg::Vector;

std::vector<Neighbor> MakeRanking(const std::vector<int>& ids) {
  std::vector<Neighbor> out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.push_back(Neighbor{ids[i], static_cast<double>(i)});
  }
  return out;
}

TEST(MetricsTest, PrecisionAtCutoffs) {
  // Relevant ids are even numbers.
  const auto ranked = MakeRanking({0, 1, 2, 3, 4, 5});
  auto relevant = [](int id) { return id % 2 == 0; };
  EXPECT_DOUBLE_EQ(PrecisionAt(ranked, 1, relevant), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAt(ranked, 2, relevant), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAt(ranked, 6, relevant), 0.5);
}

TEST(MetricsTest, PrecisionBeyondResultLength) {
  const auto ranked = MakeRanking({0, 2});
  auto relevant = [](int id) { return id % 2 == 0; };
  // Cutoff 4 with only 2 (relevant) results: 2/4.
  EXPECT_DOUBLE_EQ(PrecisionAt(ranked, 4, relevant), 0.5);
}

TEST(MetricsTest, RecallAtCutoffs) {
  const auto ranked = MakeRanking({0, 1, 2, 3});
  auto relevant = [](int id) { return id % 2 == 0; };
  EXPECT_DOUBLE_EQ(RecallAt(ranked, 4, 10, relevant), 0.2);
  EXPECT_DOUBLE_EQ(RecallAt(ranked, 1, 10, relevant), 0.1);
  EXPECT_DOUBLE_EQ(RecallAt(ranked, 4, 0, relevant), 0.0);
}

TEST(MetricsTest, PrCurveShape) {
  const auto ranked = MakeRanking({0, 1, 2});
  auto relevant = [](int id) { return id == 0 || id == 2; };
  const auto curve = PrCurve(ranked, 4, relevant);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].recall, 0.25);
  EXPECT_DOUBLE_EQ(curve[1].precision, 0.5);
  EXPECT_DOUBLE_EQ(curve[2].precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(curve[2].recall, 0.5);
}

TEST(MetricsTest, AveragePrCurves) {
  std::vector<std::vector<PrPoint>> curves{
      {{0.0, 1.0}, {0.5, 1.0}},
      {{1.0, 0.0}, {0.5, 0.0}},
  };
  const auto avg = AveragePrCurves(curves);
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg[0].recall, 0.5);
  EXPECT_DOUBLE_EQ(avg[0].precision, 0.5);
  EXPECT_DOUBLE_EQ(avg[1].recall, 0.5);
  EXPECT_DOUBLE_EQ(avg[1].precision, 0.5);
}

TEST(OracleTest, JudgesByCategoryAndTheme) {
  const std::vector<int> categories{0, 0, 1, 2};
  const std::vector<int> themes{0, 0, 0, 1};
  OracleUser oracle(&categories, &themes, OracleOptions{});
  const auto marked =
      oracle.Judge(MakeRanking({0, 1, 2, 3}), /*query_category=*/0,
                   /*query_theme=*/0);
  ASSERT_EQ(marked.size(), 3u);  // ids 0, 1 same category; id 2 same theme.
  EXPECT_EQ(marked[0].id, 0);
  EXPECT_DOUBLE_EQ(marked[0].score, 3.0);
  EXPECT_EQ(marked[2].id, 2);
  EXPECT_DOUBLE_EQ(marked[2].score, 1.0);
}

TEST(OracleTest, ThemeScoreCanBeDisabled) {
  const std::vector<int> categories{0, 1};
  const std::vector<int> themes{0, 0};
  OracleOptions opt;
  opt.same_theme_score = 0.0;
  OracleUser oracle(&categories, &themes, opt);
  const auto marked = oracle.Judge(MakeRanking({0, 1}), 0, 0);
  ASSERT_EQ(marked.size(), 1u);
  EXPECT_EQ(marked[0].id, 0);
}

TEST(OracleTest, RelevancePredicateAndCategorySize) {
  const std::vector<int> categories{0, 0, 1};
  const std::vector<int> themes{0, 0, 0};
  OracleUser oracle(&categories, &themes, OracleOptions{});
  EXPECT_TRUE(oracle.IsRelevant(0, 0));
  EXPECT_FALSE(oracle.IsRelevant(2, 0));
  EXPECT_EQ(oracle.CategorySize(0), 2);
  EXPECT_EQ(oracle.CategorySize(1), 1);
}

/// A small world where category 0 is bimodal in feature space.
struct SimWorld {
  linalg::FlatBlock points;
  std::vector<int> categories;
  std::vector<int> themes;

  explicit SimWorld(Rng& rng) {
    std::vector<Vector> rows;
    for (int i = 0; i < 20; ++i) {
      rows.push_back({0.3 * rng.Gaussian(), 0.3 * rng.Gaussian()});
      categories.push_back(0);
      rows.push_back({2.5 + 0.3 * rng.Gaussian(), 2.5 + 0.3 * rng.Gaussian()});
      categories.push_back(0);
    }
    for (int i = 0; i < 120; ++i) {
      rows.push_back({rng.Uniform(-5.0, 9.0), rng.Uniform(-5.0, 9.0)});
      categories.push_back(1 + static_cast<int>(rng.UniformInt(4)));
    }
    points = linalg::FlatBlock::FromPoints(rows);
    themes.assign(categories.size(), 0);
    for (std::size_t i = 0; i < categories.size(); ++i) {
      themes[i] = categories[i] / 2;
    }
  }
};

TEST(SimulatorTest, SessionImprovesQclusterRecall) {
  Rng rng(171);
  const SimWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  core::QclusterOptions opt;
  opt.k = 50;
  core::QclusterEngine engine(&world.points, &idx, opt);
  OracleOptions oracle_opt;
  oracle_opt.same_theme_score = 0.0;  // Category-only feedback.
  OracleUser oracle(&world.categories, &world.themes, oracle_opt);
  SimulationOptions sim;
  sim.iterations = 3;
  sim.k = 50;
  const SessionResult session = SimulateSession(
      engine, world.points, oracle, world.categories, world.themes,
      /*query_id=*/0, sim);
  ASSERT_EQ(session.iterations.size(), 4u);
  EXPECT_GT(session.iterations.back().recall,
            session.iterations.front().recall);
  // PR curves have exactly k points.
  EXPECT_EQ(session.iterations[0].pr_curve.size(), 50u);
}

TEST(SimulatorTest, QclusterBeatsQpmOnBimodalCategory) {
  // The paper's headline: disjunctive multipoint queries beat single-point
  // movement on complex (multi-modal) queries.
  Rng rng(172);
  const SimWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  OracleOptions oracle_opt;
  oracle_opt.same_theme_score = 0.0;
  OracleUser oracle(&world.categories, &world.themes, oracle_opt);
  SimulationOptions sim;
  sim.iterations = 3;
  sim.k = 50;

  core::QclusterOptions qopt;
  qopt.k = 50;
  core::QclusterEngine qcluster(&world.points, &idx, qopt);
  baselines::QpmOptions popt;
  popt.k = 50;
  baselines::QueryPointMovement qpm(&world.points, &idx, popt);

  const SessionResult sq = SimulateSession(qcluster, world.points, oracle,
                                           world.categories, world.themes, 0,
                                           sim);
  const SessionResult sp = SimulateSession(qpm, world.points, oracle,
                                           world.categories, world.themes, 0,
                                           sim);
  EXPECT_GT(sq.iterations.back().recall, sp.iterations.back().recall);
}

TEST(SimulatorTest, AverageSessionsAveragesScalars) {
  SessionResult a, b;
  IterationResult ia, ib;
  ia.precision = 1.0;
  ia.recall = 0.0;
  ia.pr_curve = {{0.0, 1.0}};
  ib.precision = 0.0;
  ib.recall = 1.0;
  ib.pr_curve = {{1.0, 0.0}};
  a.iterations.push_back(ia);
  b.iterations.push_back(ib);
  const SessionResult avg = AverageSessions({a, b});
  ASSERT_EQ(avg.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(avg.iterations[0].precision, 0.5);
  EXPECT_DOUBLE_EQ(avg.iterations[0].recall, 0.5);
}

TEST(SimulatorTest, SampleQueryIdsDistinct) {
  Rng rng(173);
  const std::vector<int> ids = SampleQueryIds(1000, 100, rng);
  EXPECT_EQ(ids.size(), 100u);
  std::set<int> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 100u);
}

}  // namespace
}  // namespace qcluster::eval
