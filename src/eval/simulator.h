#ifndef QCLUSTER_EVAL_SIMULATOR_H_
#define QCLUSTER_EVAL_SIMULATOR_H_

#include <vector>

#include "common/rng.h"
#include "core/retrieval_method.h"
#include "eval/metrics.h"
#include "eval/oracle.h"

namespace qcluster::eval {

/// Configuration of one simulated feedback session.
struct SimulationOptions {
  int iterations = 5;  ///< Feedback rounds after the initial query.
  int k = 100;         ///< Result-set size used for the headline metrics.
};

/// Metrics of one retrieval round.
struct IterationResult {
  double precision = 0.0;             ///< Precision at k.
  double recall = 0.0;                ///< Recall at k.
  std::vector<PrPoint> pr_curve;      ///< Full curve (cutoffs 1..k).
  index::SearchStats search_stats;    ///< Cost of the round's k-NN query.
  double wall_seconds = 0.0;          ///< Wall-clock time of the round.
};

/// Metrics of a full session: element 0 is the initial query, element i is
/// feedback iteration i.
struct SessionResult {
  std::vector<IterationResult> iterations;
};

/// Drives `method` through the paper's protocol for one query: initial
/// query-by-example at `query_id`, then `iterations` rounds in which the
/// oracle marks the relevant images in the current result and the method
/// refines. Results are padded with sentinel misses when a round returns
/// fewer than k images, so curves stay comparable.
SessionResult SimulateSession(core::RetrievalMethod& method,
                              const linalg::FlatBlock& database,
                              const OracleUser& oracle,
                              const std::vector<int>& categories,
                              const std::vector<int>& themes, int query_id,
                              const SimulationOptions& options);

/// Averages session results (all must share iteration count and k).
SessionResult AverageSessions(const std::vector<SessionResult>& sessions);

/// Draws `count` query ids uniformly without replacement.
std::vector<int> SampleQueryIds(int database_size, int count, Rng& rng);

}  // namespace qcluster::eval

#endif  // QCLUSTER_EVAL_SIMULATOR_H_
