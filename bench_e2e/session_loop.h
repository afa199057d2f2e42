// The closed-loop client: one thread drives QclusterEngine sessions the way
// eval::SimulateSession does (an initial query-by-example k-NN, then up to
// five oracle-judged Feedback rounds), checks every op's output, and — in
// the traced run — probes sampled rounds. Checks and probes run outside the
// timed windows.
#ifndef QCLUSTER_BENCH_E2E_SESSION_LOOP_H_
#define QCLUSTER_BENCH_E2E_SESSION_LOOP_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "eval/oracle.h"
#include "index/knn.h"
#include "index/linear_scan.h"
#include "spans.h"
#include "workload.h"

namespace qcluster::bench_e2e {

/// Forwarding index decorator for the traced and seeded-fault runs. Search
/// and SearchWarm call the wrapped index's own methods, so the warm path is
/// unchanged. With a recorder, each call is an "index.search" or
/// "index.search_warm" span carrying that call's SearchStats. With `fault`,
/// every kFaultPeriod-th result is corrupted — alternately its last
/// neighbour dropped or its first two swapped — so a run can show that the
/// output checks catch a wrong answer.
class ProbeIndex final : public index::KnnIndex {
 public:
  static constexpr long long kFaultPeriod = 7;

  ProbeIndex(const index::KnnIndex* inner, SpanRecorder* spans, bool fault)
      : inner_(inner), spans_(spans), fault_(fault) {}

  int size() const override { return inner_->size(); }
  [[nodiscard]] std::vector<index::Neighbor> Search(
      const index::DistanceFunction& dist, int k,
      index::SearchStats* stats = nullptr) const override;
  [[nodiscard]] std::vector<index::Neighbor> SearchWarm(
      const index::DistanceFunction& dist, int k, index::WarmStart& warm,
      index::SearchStats* stats = nullptr) const override;

 private:
  template <typename Call>
  std::vector<index::Neighbor> Forward(const char* name,
                                       index::SearchStats* stats,
                                       const Call& call) const;

  const index::KnnIndex* inner_;
  SpanRecorder* spans_;
  bool fault_;
  mutable long long calls_ = 0;
};

/// One served feature space as the client drives it.
struct Lane {
  const Space* space = nullptr;
  std::unique_ptr<ProbeIndex> probe;  ///< Traced and seeded-fault runs only.
  std::unique_ptr<core::QclusterEngine> engine;
  std::unique_ptr<eval::OracleUser> oracle;
  /// The exact reference: a serial LinearScanIndex on its own 1-thread pool.
  std::unique_ptr<index::LinearScanIndex> reference;
};

/// One lane per served space. The engine searches the space's index
/// directly unless `spans` or `fault` calls for the ProbeIndex.
std::vector<Lane> MakeLanes(const Served& served, ThreadPool* serial_pool,
                            SpanRecorder* spans, bool fault);

struct LoopConfig {
  /// Stop once this much wall time has passed and the sessions below
  /// min_sessions are done; <= 0 runs every session in
  /// [first_session, max_sessions).
  double seconds = 0.0;
  long min_sessions = 0;
  long first_session = 0;
  long max_sessions = 0;
  /// Sessions below this id add to the recall sum, so it does not depend
  /// on speed.
  long recall_sessions = 0;
  /// Session s runs on lane s mod L with query queries[s / L] (cycled), so
  /// every lane answers the same query ids.
  std::vector<int> queries;
  /// Sessions whose every op is compared with the exact reference and, in
  /// traced runs, probed.
  std::unordered_set<long> sampled;
};

struct LoopResult {
  long sessions = 0;
  long ended_early = 0;  ///< Sessions whose judgement came back empty.
  long long attempted = 0;
  long long failed = 0;
  /// Wall time of the ops and the judging; checks and probes excluded.
  double active_s = 0.0;
  std::vector<double> initial_ms;
  std::vector<double> feedback_ms;
  /// Recall at k after each session's last round, over the sessions below
  /// recall_sessions.
  double recall_sum = 0.0;
  long recall_count = 0;
  // Traced runs only.
  long long feedback_rounds = 0;
  long long new_points = 0;  ///< Marks not seen earlier in the session.
  long long clusters = 0;    ///< engine.clusters().size() after each round.
  long long warm_evals = 0;  ///< Sampled rounds: the engine's warm search.
  long long cold_evals = 0;  ///< Same rounds: a cold Search, same metric.
};

/// Runs sessions on one thread, closed loop.
LoopResult RunSessions(std::vector<Lane>& lanes, const LoopConfig& config,
                       SpanRecorder* spans);

/// Adds a later run of consecutive sessions to `total`.
void Append(const LoopResult& part, LoopResult* total);

}  // namespace qcluster::bench_e2e

#endif  // QCLUSTER_BENCH_E2E_SESSION_LOOP_H_
