#ifndef QCLUSTER_CORE_ENGINE_H_
#define QCLUSTER_CORE_ENGINE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/classifier.h"
#include "core/cluster.h"
#include "core/disjunctive_distance.h"
#include "core/hierarchical.h"
#include "core/merging.h"
#include "core/retrieval_method.h"
#include "index/knn.h"

namespace qcluster::core {

/// All tunables of the Qcluster retrieval loop.
struct QclusterOptions {
  /// Result size k of every k-NN round (the paper uses k = 100).
  int k = 100;
  /// Significance level α shared by the effective radius (Lemma 1) and the
  /// merge test (Eq. 16).
  double alpha = 0.05;
  /// Cluster-count cap handed to the merging stage ("a given size").
  int max_clusters = 5;
  /// Target cluster count of the initial hierarchical clustering.
  int initial_clusters = 3;
  /// Covariance scheme for every quadratic form (diagonal by default, the
  /// configuration the paper adopts after Fig. 6).
  stats::CovarianceScheme scheme = stats::CovarianceScheme::kDiagonal;
  /// Absolute variance floor protecting degenerate covariances.
  double min_variance = 1e-4;
  /// Use per-cluster covariances in the classification stage (QDA, Eq. 8's
  /// special case) instead of the paper's pooled simplification (Eq. 10).
  bool use_individual_covariances = false;
  /// RDA-style covariance shrinkage λ applied to the disjunctive metric:
  /// S_i' = (1 − λ) S_i + λ S_pooled. An extension beyond the paper that
  /// regularizes small-cluster ellipsoids; 0 (default) reproduces the
  /// paper's metric exactly. See bench_ablation_shrinkage.
  double covariance_shrinkage = 0.0;
  /// Carry the session cache across feedback iterations (the multipoint
  /// refinement optimization measured in Fig. 7, generalized to the
  /// session-resident index::WarmStart): every k-NN round runs through
  /// KnnIndex::SearchWarm, which returns the previous answer when the
  /// metric has not changed bit for bit, and otherwise lets the index use
  /// what it cached — BrTree never re-reads a leaf page, the linear scan
  /// re-scores the previous answer for a certified θ₀ and rejects at heap
  /// admission. Results stay bit-for-bit identical to cold searches.
  bool use_query_cache = true;
};

/// The Qcluster retrieval engine — Algorithm 1.
///
/// Drives the full relevance feedback loop: an initial query-by-example
/// k-NN round, then per-iteration adaptive classification (Algorithm 2),
/// cluster merging (Algorithm 3), and disjunctive multipoint re-query
/// (Eq. 5). Usage:
///
///   QclusterEngine engine(&db.features(), &tree, options);
///   auto result = engine.InitialQuery(db.features()[q]);
///   for (int it = 0; it < 5; ++it) {
///     std::vector<RelevantItem> marked = user_judgement(result);
///     result = engine.Feedback(marked);
///   }
class QclusterEngine final : public RetrievalMethod {
 public:
  /// `database` and `knn` must outlive the engine. When
  /// options.use_query_cache is set, every query goes through the engine's
  /// WarmStart cache, whichever index serves it.
  QclusterEngine(const linalg::FlatBlock* database,
                 const index::KnnIndex* knn, const QclusterOptions& options);

  std::string name() const override { return "qcluster"; }

  /// Algorithm 1 step 1, first half: plain k-NN around the example point.
  std::vector<index::Neighbor> InitialQuery(
      const linalg::Vector& query) override;

  /// One relevance feedback round: incorporates the newly marked relevant
  /// images (previously seen ids are ignored — they are already inside the
  /// clusters), reruns classification + merging, and answers the refined
  /// disjunctive k-NN query. Requires at least one *total* relevant point
  /// across all rounds so far.
  std::vector<index::Neighbor> Feedback(
      const std::vector<RelevantItem>& marked) override;

  /// Current query clusters (empty before the first Feedback call).
  const std::vector<Cluster>& clusters() const { return clusters_; }

  /// 0 before feedback, then the number of completed feedback rounds.
  int iteration() const { return iteration_; }

  /// Cost counters of the most recent k-NN round.
  const index::SearchStats& last_search_stats() const override {
    return last_stats_;
  }

  /// The current disjunctive metric; valid once clusters exist.
  DisjunctiveDistance CurrentDistance() const;

  /// Resets all feedback state, keeping database/index/options.
  void Reset() override;

  /// The variance floor in effect for the current clusters (the adaptive
  /// shrinkage floor, at least options.min_variance).
  double effective_min_variance() const { return floor_; }

  /// The session-resident cross-round cache (empty before the first round
  /// or with use_query_cache off). Exposed for tests.
  const index::WarmStart& warm_start() const { return warm_; }

 private:
  std::vector<index::Neighbor> RunQuery(const index::DistanceFunction& dist);
  void UpdateVarianceFloor();
  /// The trace id this query sequence records under, allocated lazily
  /// while tracing is on.
  std::uint64_t EnsureTraceId();

  const linalg::FlatBlock* database_;
  const index::KnnIndex* knn_;
  QclusterOptions options_;

  std::vector<Cluster> clusters_;
  std::unordered_set<int> seen_ids_;
  /// Cross-round cache (see index::WarmStart): round t's answer, reused
  /// as is when round t+1's metric is unchanged, plus what the index keeps
  /// for the other rounds. One per engine, i.e. one per retrieval session.
  index::WarmStart warm_;
  index::SearchStats last_stats_;
  int iteration_ = 0;
  double floor_ = 0.0;
  /// Trace id the engine's rounds record under; allocated lazily, cleared
  /// by Reset.
  std::uint64_t trace_id_ = 0;
};

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_ENGINE_H_
