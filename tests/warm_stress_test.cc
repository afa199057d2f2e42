// Concurrent-session stress for the cross-round session cache: several
// QclusterEngines, one per session and thread, share one FeatureDatabase
// and one index but carry *independent* WarmStart caches, so feedback
// rounds driven from parallel threads must produce exactly the results of
// the same rounds replayed single-threaded. Run under TSan this also
// proves the warm path adds no data race: the shared database and index
// are immutable, each cache is touched only by its own engine's thread,
// and the BR-tree's leaf-scoring scratch is per thread. Every session ends
// with a round that adds no point, which the cache answers without a
// search. Every test runs its sessions over both indexes.

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "dataset/feature_database.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"

namespace qcluster::core {
namespace {

using linalg::Vector;

constexpr int kClusters = 4;
constexpr int kPerCluster = 100;
constexpr int kStressDim = 4;
constexpr int kRounds = 3;

const dataset::FeatureDatabase& SharedDatabase() {
  static const auto* db = [] {
    Rng rng(733);
    std::vector<Vector> raw;
    std::vector<int> categories;
    for (int c = 0; c < kClusters; ++c) {
      for (int i = 0; i < kPerCluster; ++i) {
        Vector p(kStressDim);
        for (int d = 0; d < kStressDim; ++d) {
          p[static_cast<std::size_t>(d)] =
              2.5 * c * (d % 2 == 0 ? 1.0 : -1.0) + 0.4 * rng.Gaussian();
        }
        raw.push_back(std::move(p));
        categories.push_back(c);
      }
    }
    return new dataset::FeatureDatabase(dataset::FeatureDatabase::FromRawFeatures(
        std::move(raw), std::move(categories),
        std::vector<int>(kClusters * kPerCluster, 0), kStressDim));
  }();
  return *db;
}

QclusterOptions StressOptions() {
  QclusterOptions opt;
  opt.k = 50;
  opt.use_query_cache = true;
  return opt;
}

/// One user's deterministic session: start from a category member, then
/// each round mark every retrieved image of the target category. Depends
/// only on this session's own results, so a single-threaded replay must
/// reproduce it exactly.
std::vector<std::vector<index::Neighbor>> DriveSession(
    QclusterEngine& engine, int category) {
  const dataset::FeatureDatabase& db = SharedDatabase();
  std::vector<std::vector<index::Neighbor>> per_round;
  auto result = engine.InitialQuery(
      db.features()[static_cast<std::size_t>(category * kPerCluster)]);
  per_round.push_back(result);
  std::vector<RelevantItem> marked;
  for (int round = 0; round < kRounds; ++round) {
    marked.clear();
    for (const auto& n : result) {
      if (n.id / kPerCluster == category) marked.push_back({n.id, 1.0});
    }
    if (marked.empty()) marked.push_back({category * kPerCluster, 1.0});
    result = engine.Feedback(marked);
    per_round.push_back(result);
  }
  // The last marks again: no new point, the same metric, so the session
  // cache serves the previous answer without a search.
  result = engine.Feedback(marked);
  EXPECT_EQ(engine.last_search_stats().distance_evaluations, 0);
  EXPECT_EQ(result, per_round.back());
  per_round.push_back(result);
  return per_round;
}

/// The shared index each test drives: the linear scan, and a BR-tree with
/// small leaves so every round fetches several pages past the cached ones.
std::vector<std::pair<std::string, std::unique_ptr<index::KnnIndex>>>
SharedIndexes() {
  const dataset::FeatureDatabase& db = SharedDatabase();
  std::vector<std::pair<std::string, std::unique_ptr<index::KnnIndex>>> out;
  out.emplace_back("linear_scan",
                   std::make_unique<index::LinearScanIndex>(db.flat_view()));
  index::BrTree::Options opt;
  opt.leaf_size = 8;
  out.emplace_back("br_tree",
                   std::make_unique<index::BrTree>(&db.features(), opt));
  return out;
}

void ConcurrentSessionsMatchSequentialReplay(const index::KnnIndex& index) {
  const dataset::FeatureDatabase& db = SharedDatabase();
  const QclusterOptions opt = StressOptions();

  // Two sessions over the same database and index, driven concurrently.
  QclusterEngine session_a(&db.features(), &index, opt);
  QclusterEngine session_b(&db.features(), &index, opt);
  std::vector<std::vector<index::Neighbor>> rounds_a;
  std::vector<std::vector<index::Neighbor>> rounds_b;
  {
    std::thread ta([&] { rounds_a = DriveSession(session_a, 0); });
    std::thread tb([&] { rounds_b = DriveSession(session_b, 2); });
    ta.join();
    tb.join();
  }
  // Each session's cache warmed independently.
  EXPECT_GE(session_a.warm_start().size(), opt.k);
  EXPECT_GE(session_b.warm_start().size(), opt.k);

  // The same two sessions replayed one after the other — identical rounds.
  QclusterEngine replay_a(&db.features(), &index, opt);
  QclusterEngine replay_b(&db.features(), &index, opt);
  EXPECT_EQ(rounds_a, DriveSession(replay_a, 0));
  EXPECT_EQ(rounds_b, DriveSession(replay_b, 2));

  // Sharing one database must not couple the sessions: the two users
  // searched different categories, so their final rounds differ.
  EXPECT_NE(rounds_a.back(), rounds_b.back());
}

void ManySessionsHammerOneIndex(const index::KnnIndex& index) {
  const dataset::FeatureDatabase& db = SharedDatabase();
  const QclusterOptions opt = StressOptions();

  constexpr int kSessions = 8;
  std::vector<std::unique_ptr<QclusterEngine>> sessions;
  std::vector<std::vector<std::vector<index::Neighbor>>> rounds(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(
        std::make_unique<QclusterEngine>(&db.features(), &index, opt));
  }
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        rounds[static_cast<std::size_t>(s)] =
            DriveSession(*sessions[static_cast<std::size_t>(s)], s % kClusters);
      });
    }
    for (auto& t : threads) t.join();
  }
  // Sessions targeting the same category must agree round for round with
  // each other and with a sequential replay — the caches never cross.
  for (int s = 0; s < kSessions; ++s) {
    QclusterEngine replay(&db.features(), &index, opt);
    EXPECT_EQ(rounds[static_cast<std::size_t>(s)],
              DriveSession(replay, s % kClusters))
        << "session " << s;
  }
}

TEST(WarmStressTest, ConcurrentSessionsMatchSequentialReplay) {
  for (const auto& [name, index] : SharedIndexes()) {
    SCOPED_TRACE(name);
    ConcurrentSessionsMatchSequentialReplay(*index);
  }
}

TEST(WarmStressTest, ManySessionsHammerOneIndex) {
  for (const auto& [name, index] : SharedIndexes()) {
    SCOPED_TRACE(name);
    ManySessionsHammerOneIndex(*index);
  }
}

}  // namespace
}  // namespace qcluster::core
