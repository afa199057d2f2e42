#include "eval/simulator.h"

#include <chrono>

#include "common/check.h"

namespace qcluster::eval {
namespace {

IterationResult MeasureRound(const std::vector<index::Neighbor>& result,
                             const OracleUser& oracle, int query_category,
                             int total_relevant, int k, double wall_seconds,
                             const index::SearchStats& stats) {
  auto relevant = [&](int id) { return oracle.IsRelevant(id, query_category); };
  IterationResult out;
  out.precision = PrecisionAt(result, k, relevant);
  out.recall = RecallAt(result, k, total_relevant, relevant);
  // Pad the curve to exactly k points so averages across queries align.
  std::vector<index::Neighbor> padded = result;
  while (static_cast<int>(padded.size()) < k) {
    padded.push_back(index::Neighbor{-1, 0.0});
  }
  auto padded_relevant = [&](int id) {
    return id >= 0 && oracle.IsRelevant(id, query_category);
  };
  out.pr_curve = PrCurve(padded, total_relevant, padded_relevant);
  out.search_stats = stats;
  out.wall_seconds = wall_seconds;
  return out;
}

}  // namespace

SessionResult SimulateSession(core::RetrievalMethod& method,
                              const linalg::FlatBlock& database,
                              const OracleUser& oracle,
                              const std::vector<int>& categories,
                              const std::vector<int>& themes, int query_id,
                              const SimulationOptions& options) {
  QCLUSTER_CHECK(0 <= query_id &&
                 query_id < static_cast<int>(database.size()));
  QCLUSTER_CHECK(options.iterations >= 0);
  QCLUSTER_CHECK(options.k > 0);
  const int query_category = categories[static_cast<std::size_t>(query_id)];
  const int query_theme = themes[static_cast<std::size_t>(query_id)];
  const int total_relevant = oracle.CategorySize(query_category);

  SessionResult session;
  using Clock = std::chrono::steady_clock;

  auto t0 = Clock::now();
  std::vector<index::Neighbor> result =
      method.InitialQuery(database[static_cast<std::size_t>(query_id)]);
  double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  session.iterations.push_back(MeasureRound(result, oracle, query_category,
                                            total_relevant, options.k, secs,
                                            method.last_search_stats()));

  for (int it = 0; it < options.iterations; ++it) {
    const std::vector<core::RelevantItem> marked =
        oracle.Judge(result, query_category, query_theme);
    if (marked.empty()) {
      // The user found nothing relevant: the method cannot refine; repeat
      // the previous metrics (the paper's averages simply see no change).
      session.iterations.push_back(session.iterations.back());
      continue;
    }
    t0 = Clock::now();
    result = method.Feedback(marked);
    secs = std::chrono::duration<double>(Clock::now() - t0).count();
    session.iterations.push_back(MeasureRound(result, oracle, query_category,
                                              total_relevant, options.k, secs,
                                              method.last_search_stats()));
  }
  return session;
}

SessionResult AverageSessions(const std::vector<SessionResult>& sessions) {
  QCLUSTER_CHECK(!sessions.empty());
  const std::size_t rounds = sessions.front().iterations.size();
  SessionResult avg;
  avg.iterations.resize(rounds);
  std::vector<std::vector<PrPoint>> curves;
  for (std::size_t r = 0; r < rounds; ++r) {
    curves.clear();
    for (const SessionResult& s : sessions) {
      QCLUSTER_CHECK(s.iterations.size() == rounds);
      const IterationResult& it = s.iterations[r];
      avg.iterations[r].precision += it.precision;
      avg.iterations[r].recall += it.recall;
      avg.iterations[r].wall_seconds += it.wall_seconds;
      avg.iterations[r].search_stats.distance_evaluations +=
          it.search_stats.distance_evaluations;
      avg.iterations[r].search_stats.nodes_visited +=
          it.search_stats.nodes_visited;
      avg.iterations[r].search_stats.leaves_visited +=
          it.search_stats.leaves_visited;
      curves.push_back(it.pr_curve);
    }
    const double inv = 1.0 / static_cast<double>(sessions.size());
    avg.iterations[r].precision *= inv;
    avg.iterations[r].recall *= inv;
    avg.iterations[r].wall_seconds *= inv;
    avg.iterations[r].search_stats.distance_evaluations = static_cast<long long>(
        avg.iterations[r].search_stats.distance_evaluations * inv);
    avg.iterations[r].search_stats.nodes_visited = static_cast<long long>(
        avg.iterations[r].search_stats.nodes_visited * inv);
    avg.iterations[r].search_stats.leaves_visited = static_cast<long long>(
        avg.iterations[r].search_stats.leaves_visited * inv);
    avg.iterations[r].pr_curve = AveragePrCurves(curves);
  }
  return avg;
}

std::vector<int> SampleQueryIds(int database_size, int count, Rng& rng) {
  QCLUSTER_CHECK(count <= database_size);
  return rng.SampleWithoutReplacement(database_size, count);
}

}  // namespace qcluster::eval
