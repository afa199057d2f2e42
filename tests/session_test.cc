#include "core/session.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/br_tree.h"

namespace qcluster::core {
namespace {

using linalg::Vector;

struct SessionWorld {
  std::vector<Vector> points;

  explicit SessionWorld(Rng& rng) {
    for (int i = 0; i < 40; ++i) {
      points.push_back(linalg::Scale(rng.GaussianVector(2), 0.4));
      points.push_back(linalg::Add(
          linalg::Scale(rng.GaussianVector(2), 0.4), {3.0, 3.0}));
    }
    for (int i = 0; i < 120; ++i) {
      points.push_back({rng.Uniform(-4.0, 7.0), rng.Uniform(-4.0, 7.0)});
    }
  }
};

QclusterOptions SessionOptions() {
  QclusterOptions opt;
  opt.k = 50;
  return opt;
}

TEST(RetrievalSessionTest, RecordsHistory) {
  Rng rng(341);
  const SessionWorld world(rng);
  const index::BrTree tree(&world.points);
  RetrievalSession session(&world.points, &tree, SessionOptions());
  EXPECT_FALSE(session.started());
  auto result = session.Start(world.points[0]);
  EXPECT_TRUE(session.started());
  EXPECT_EQ(session.rounds(), 0);

  session.Feedback({{0, 1.0}, {2, 1.0}});
  session.Feedback({{4, 1.0}});
  EXPECT_EQ(session.rounds(), 2);
  EXPECT_EQ(session.history()[0].marked.size(), 2u);
  EXPECT_EQ(session.history()[1].marked.size(), 1u);
  EXPECT_FALSE(session.history()[1].clusters.empty());
  EXPECT_EQ(session.current_result(), session.history()[1].result);
}

TEST(RetrievalSessionTest, UndoRestoresPreviousState) {
  Rng rng(342);
  const SessionWorld world(rng);
  const index::BrTree tree(&world.points);
  RetrievalSession session(&world.points, &tree, SessionOptions());
  session.Start(world.points[0]);
  const auto after_first = session.Feedback({{0, 1.0}, {2, 1.0}});
  const auto clusters_after_first = session.clusters();
  session.Feedback({{4, 1.0}, {6, 1.0}});

  ASSERT_TRUE(session.Undo());
  EXPECT_EQ(session.rounds(), 1);
  EXPECT_EQ(session.current_result(), after_first);
  ASSERT_EQ(session.clusters().size(), clusters_after_first.size());
  for (std::size_t i = 0; i < clusters_after_first.size(); ++i) {
    EXPECT_TRUE(linalg::AllClose(session.clusters()[i].centroid(),
                                 clusters_after_first[i].centroid(), 1e-12));
  }
}

TEST(RetrievalSessionTest, UndoToInitialState) {
  Rng rng(343);
  const SessionWorld world(rng);
  const index::BrTree tree(&world.points);
  RetrievalSession session(&world.points, &tree, SessionOptions());
  const auto initial = session.Start(world.points[0]);
  session.Feedback({{0, 1.0}});
  ASSERT_TRUE(session.Undo());
  EXPECT_EQ(session.rounds(), 0);
  EXPECT_EQ(session.current_result(), initial);
  EXPECT_TRUE(session.clusters().empty());
  EXPECT_FALSE(session.Undo());  // Nothing left to undo.
}

TEST(RetrievalSessionTest, UndoThenRedoPathIsConsistent) {
  // Undo followed by the same feedback again lands in the same state as
  // never having undone (determinism end to end).
  Rng rng(344);
  const SessionWorld world(rng);
  const index::BrTree tree(&world.points);

  RetrievalSession a(&world.points, &tree, SessionOptions());
  a.Start(world.points[0]);
  a.Feedback({{0, 1.0}, {2, 1.0}});
  const auto direct = a.Feedback({{4, 1.0}});

  RetrievalSession b(&world.points, &tree, SessionOptions());
  b.Start(world.points[0]);
  b.Feedback({{0, 1.0}, {2, 1.0}});
  b.Feedback({{8, 1.0}});  // A different second round...
  ASSERT_TRUE(b.Undo());   // ...undone...
  const auto redone = b.Feedback({{4, 1.0}});  // ...and replaced.
  EXPECT_EQ(redone, direct);
}

TEST(RetrievalSessionTest, StartResetsHistory) {
  Rng rng(345);
  const SessionWorld world(rng);
  const index::BrTree tree(&world.points);
  RetrievalSession session(&world.points, &tree, SessionOptions());
  session.Start(world.points[0]);
  session.Feedback({{0, 1.0}});
  session.Start(world.points[1]);
  EXPECT_EQ(session.rounds(), 0);
  EXPECT_TRUE(session.clusters().empty());
}

TEST(RetrievalSessionTest, FeedbackBeforeStartDies) {
  Rng rng(346);
  const SessionWorld world(rng);
  const index::BrTree tree(&world.points);
  RetrievalSession session(&world.points, &tree, SessionOptions());
  EXPECT_DEATH(session.Feedback({{0, 1.0}}), "Start");
}

}  // namespace
}  // namespace qcluster::core
