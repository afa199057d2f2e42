#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"

namespace qcluster::core {
namespace {

using linalg::Vector;

/// A bimodal "category": half its members near (0,0), half near (4,4),
/// plus background noise everywhere — the disjoint-cluster query situation
/// of Example 1. The modes sit close enough that the *initial* Euclidean
/// k-NN surfaces members of both (as in the paper's Example 2, where the
/// 10 retrieved relevant images already form two clusters), while the
/// background between them is dense enough that a single convex contour
/// wastes most of its volume on noise.
struct BimodalWorld {
  linalg::FlatBlock points;
  std::vector<int> relevant_ids;  // Ground truth of the target concept.

  explicit BimodalWorld(Rng& rng, int relevant_per_mode = 30,
                        int background = 140) {
    std::vector<Vector> rows;
    for (int i = 0; i < relevant_per_mode; ++i) {
      relevant_ids.push_back(static_cast<int>(rows.size()));
      rows.push_back({0.3 * rng.Gaussian(), 0.3 * rng.Gaussian()});
      relevant_ids.push_back(static_cast<int>(rows.size()));
      rows.push_back({3.0 + 0.3 * rng.Gaussian(), 3.0 + 0.3 * rng.Gaussian()});
    }
    for (int i = 0; i < background; ++i) {
      rows.push_back({rng.Uniform(-5.0, 9.0), rng.Uniform(-5.0, 9.0)});
    }
    points = linalg::FlatBlock::FromPoints(rows);
  }

  bool IsRelevant(int id) const {
    return std::find(relevant_ids.begin(), relevant_ids.end(), id) !=
           relevant_ids.end();
  }
};

QclusterOptions SmallOptions() {
  QclusterOptions opt;
  opt.k = 80;
  opt.max_clusters = 4;
  opt.initial_clusters = 3;
  return opt;
}

TEST(QclusterEngineTest, InitialQueryIsEuclideanKnn) {
  Rng rng(141);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());
  const auto result = engine.InitialQuery({0.0, 0.0});
  ASSERT_EQ(result.size(), 80u);
  // Results sorted by distance from the query point.
  for (std::size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].distance, result[i].distance);
  }
  EXPECT_EQ(engine.iteration(), 0);
  EXPECT_TRUE(engine.clusters().empty());
}

TEST(QclusterEngineTest, FeedbackBuildsClusters) {
  Rng rng(142);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());
  auto result = engine.InitialQuery(world.points[0]);

  std::vector<RelevantItem> marked;
  for (const auto& n : result) {
    if (world.IsRelevant(n.id)) marked.push_back({n.id, 1.0});
  }
  ASSERT_FALSE(marked.empty());
  result = engine.Feedback(marked);
  EXPECT_EQ(engine.iteration(), 1);
  EXPECT_FALSE(engine.clusters().empty());
  EXPECT_LE(engine.clusters().size(), 4u);
}

TEST(QclusterEngineTest, FeedbackPopulatesPhaseTimers) {
  MetricsRegistry::Global().Reset();
  SetMetricsEnabled(true);
  Rng rng(142);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());
  auto result = engine.InitialQuery(world.points[0]);
  std::vector<RelevantItem> marked;
  for (const auto& n : result) {
    if (world.IsRelevant(n.id)) marked.push_back({n.id, 1.0});
  }
  ASSERT_FALSE(marked.empty());
  engine.Feedback(marked);
  SetMetricsEnabled(false);

  auto& registry = MetricsRegistry::Global();
  // One feedback round populates every phase timer exactly once...
  for (const char* phase :
       {"feedback.total", "feedback.classify", "feedback.merge",
        "feedback.knn_query"}) {
    const auto snap = registry.HistogramSnapshot(phase);
    ASSERT_TRUE(snap.has_value()) << phase;
    EXPECT_EQ(snap->count, 1) << phase;
    EXPECT_GE(snap->min, 0.0) << phase;
  }
  // ...except the variance floor, recomputed after classify and after merge.
  const auto floor_snap = registry.HistogramSnapshot("feedback.variance_floor");
  ASSERT_TRUE(floor_snap.has_value());
  EXPECT_EQ(floor_snap->count, 2);
  // The phases nest inside the total.
  EXPECT_LE(registry.HistogramSnapshot("feedback.classify")->sum,
            registry.HistogramSnapshot("feedback.total")->sum);
  // Round counters and the cluster gauge follow along.
  EXPECT_EQ(registry.CounterValue("engine.feedback.rounds"), 1);
  EXPECT_EQ(registry.CounterValue("engine.initial_queries"), 1);
  ASSERT_TRUE(registry.GaugeValue("engine.clusters").has_value());
  EXPECT_EQ(*registry.GaugeValue("engine.clusters"),
            static_cast<double>(engine.clusters().size()));
  // The k-NN rounds folded the linear scan's cost into session counters.
  EXPECT_EQ(registry.CounterValue("index.linear_scan.searches"), 2);
  EXPECT_GT(registry.CounterValue("index.linear_scan.distance_evaluations"),
            0);
  MetricsRegistry::Global().Reset();
}

TEST(QclusterEngineTest, RecallImprovesOverIterations) {
  Rng rng(143);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());

  auto result = engine.InitialQuery(world.points[0]);
  auto recall = [&](const std::vector<index::Neighbor>& r) {
    int hits = 0;
    for (const auto& n : r) {
      if (world.IsRelevant(n.id)) ++hits;
    }
    return static_cast<double>(hits) / world.relevant_ids.size();
  };
  const double initial_recall = recall(result);

  for (int it = 0; it < 3; ++it) {
    std::vector<RelevantItem> marked;
    for (const auto& n : result) {
      if (world.IsRelevant(n.id)) marked.push_back({n.id, 1.0});
    }
    result = engine.Feedback(marked);
  }
  const double final_recall = recall(result);
  // The initial Euclidean contour wastes most of its k on background; the
  // refined disjunctive query must recover the bulk of both modes.
  EXPECT_GT(final_recall, initial_recall);
  EXPECT_GT(final_recall, 0.8);
}

TEST(QclusterEngineTest, FindsBothModes) {
  Rng rng(144);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());
  auto result = engine.InitialQuery(world.points[0]);
  for (int it = 0; it < 3; ++it) {
    std::vector<RelevantItem> marked;
    for (const auto& n : result) {
      if (world.IsRelevant(n.id)) marked.push_back({n.id, 1.0});
    }
    result = engine.Feedback(marked);
  }
  // At least one cluster centered near each mode.
  bool near_origin = false, near_far = false;
  for (const Cluster& c : engine.clusters()) {
    const double d0 = linalg::Distance(c.centroid(), {0.0, 0.0});
    const double d8 = linalg::Distance(c.centroid(), {3.0, 3.0});
    if (d0 < 1.5) near_origin = true;
    if (d8 < 1.5) near_far = true;
  }
  EXPECT_TRUE(near_origin);
  EXPECT_TRUE(near_far);
}

TEST(QclusterEngineTest, DuplicateFeedbackIgnored) {
  Rng rng(145);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());
  engine.InitialQuery(world.points[0]);
  engine.Feedback({{0, 1.0}, {1, 1.0}});
  auto total_weight = [&engine] {
    double total = 0.0;
    for (const Cluster& c : engine.clusters()) total += c.weight();
    return total;
  };
  EXPECT_NEAR(total_weight(), 2.0, 1e-9);
  // Feeding the same ids again must not inflate the statistics.
  engine.Feedback({{0, 1.0}, {1, 1.0}});
  EXPECT_NEAR(total_weight(), 2.0, 1e-9);
}

TEST(QclusterEngineTest, ResetClearsState) {
  Rng rng(146);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());
  engine.InitialQuery(world.points[0]);
  engine.Feedback({{0, 1.0}});
  engine.Reset();
  EXPECT_EQ(engine.iteration(), 0);
  EXPECT_TRUE(engine.clusters().empty());
}

TEST(QclusterEngineTest, InitialQueryResetsPreviousSession) {
  Rng rng(147);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());
  engine.InitialQuery(world.points[0]);
  engine.Feedback({{0, 1.0}});
  engine.InitialQuery(world.points[1]);
  EXPECT_TRUE(engine.clusters().empty());
  EXPECT_EQ(engine.iteration(), 0);
}

TEST(QclusterEngineTest, FeedbackWithoutRelevantDies) {
  Rng rng(148);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());
  engine.InitialQuery(world.points[0]);
  EXPECT_DEATH(engine.Feedback({}), "relevant");
}

TEST(QclusterEngineTest, BrTreeAndLinearScanAgree) {
  Rng rng(149);
  const BimodalWorld world(rng);
  const index::LinearScanIndex scan(world.points.view());
  const index::BrTree tree(&world.points);
  QclusterOptions opt = SmallOptions();
  QclusterEngine engine_scan(&world.points, &scan, opt);
  QclusterEngine engine_tree(&world.points, &tree, opt);

  auto r1 = engine_scan.InitialQuery(world.points[0]);
  auto r2 = engine_tree.InitialQuery(world.points[0]);
  EXPECT_EQ(r1, r2);

  std::vector<RelevantItem> marked;
  for (const auto& n : r1) {
    if (world.IsRelevant(n.id)) marked.push_back({n.id, 1.0});
  }
  r1 = engine_scan.Feedback(marked);
  r2 = engine_tree.Feedback(marked);
  EXPECT_EQ(r1, r2);
}

TEST(QclusterEngineTest, RoundWithoutNewPointsReturnsThePreviousAnswer) {
  // Marking only images already marked adds no point: the clusters, the
  // variance floor and so the metric are rebuilt bit for bit, and the
  // session cache serves the previous answer without searching.
  Rng rng(152);
  const BimodalWorld world(rng);
  const index::LinearScanIndex scan(world.points.view());
  const index::BrTree tree(&world.points);
  for (const index::KnnIndex* idx :
       {static_cast<const index::KnnIndex*>(&scan),
        static_cast<const index::KnnIndex*>(&tree)}) {
    SCOPED_TRACE(idx == &scan ? "linear_scan" : "br_tree");
    QclusterEngine engine(&world.points, idx, SmallOptions());
    const std::vector<index::Neighbor> first =
        engine.InitialQuery(world.points[0]);
    std::vector<RelevantItem> marked;
    for (const auto& n : first) {
      if (world.IsRelevant(n.id)) marked.push_back({n.id, 1.0});
    }
    const std::vector<index::Neighbor> result = engine.Feedback(marked);
    ASSERT_GT(engine.last_search_stats().distance_evaluations, 0);
    const std::vector<index::Neighbor> again = engine.Feedback(marked);
    ASSERT_EQ(again.size(), result.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(again[i].id, result[i].id) << i;
      EXPECT_EQ(std::memcmp(&again[i].distance, &result[i].distance,
                            sizeof(double)),
                0)
          << i;
    }
    EXPECT_EQ(engine.last_search_stats().distance_evaluations, 0);
    EXPECT_EQ(engine.last_search_stats().nodes_visited, 0);
    EXPECT_EQ(engine.last_search_stats().leaves_visited, 0);
  }
}

TEST(QclusterEngineTest, NameIsQcluster) {
  Rng rng(150);
  const BimodalWorld world(rng);
  const index::LinearScanIndex idx(world.points.view());
  QclusterEngine engine(&world.points, &idx, SmallOptions());
  EXPECT_EQ(engine.name(), "qcluster");
}

TEST(QclusterEngineTest, NanRowsMarkedAcrossRoundsDoNotAbort) {
  // Marks can reach rows whose features hold NaN. Their clusters have a NaN
  // T² against every other cluster, so a merge pass can find no finite T²
  // while the count is over the cap; it must still force a merge.
  Rng rng(151);
  std::vector<Vector> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({rng.Gaussian(), rng.Gaussian()});
  }
  for (int i = 0; i < 20; ++i) {
    rows.push_back({std::numeric_limits<double>::quiet_NaN(), rng.Gaussian()});
  }
  const linalg::FlatBlock points = linalg::FlatBlock::FromPoints(rows);
  const index::LinearScanIndex idx(points.view());
  const QclusterOptions opt = SmallOptions();
  QclusterEngine engine(&points, &idx, opt);
  engine.InitialQuery(points[0]);
  engine.Feedback({{0, 1.0}, {1, 1.0}, {2, 1.0}});
  for (int id = 200; id + 2 < 220; id += 3) {
    SCOPED_TRACE(testing::Message() << "NaN rows from " << id);
    const std::vector<index::Neighbor> result =
        engine.Feedback({{id, 1.0}, {id + 1, 1.0}, {id + 2, 1.0}});
    EXPECT_EQ(result.size(), static_cast<std::size_t>(opt.k));
    EXPECT_LE(engine.clusters().size(),
              static_cast<std::size_t>(opt.max_clusters));
  }
}

}  // namespace
}  // namespace qcluster::core
