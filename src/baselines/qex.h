#ifndef QCLUSTER_BASELINES_QEX_H_
#define QCLUSTER_BASELINES_QEX_H_

#include <unordered_set>
#include <vector>

#include "core/cluster.h"
#include "core/retrieval_method.h"
#include "index/knn.h"

namespace qcluster::baselines {

/// Options for the query-expansion baseline.
struct QexOptions {
  int k = 100;
  /// Number of local clusters / query representatives kept per iteration.
  int num_representatives = 5;
  /// Variance floor for per-cluster diagonal metrics.
  double min_variance = 1e-4;
};

/// The convex multipoint aggregate used by query expansion: a weighted
/// *arithmetic* mean of per-representative quadratic distances,
/// d(Q, x) = Σ_i w_i d_i²(x). Unlike Eq. 5's harmonic fuzzy-OR this is the
/// α = +1 aggregation, producing one large convex contour that covers all
/// representatives — exactly the behavior the paper criticizes for complex
/// queries (Sec. 2, Example 2).
class QexDistance final : public index::DistanceFunction {
 public:
  QexDistance(const std::vector<core::Cluster>& clusters,
              double min_variance);

  int dim() const override { return dim_; }
  double DistanceRow(const double* x) const override;
  double MinDistance(const index::Rect& rect) const override;

 private:
  int dim_;
  std::vector<linalg::Vector> centroids_;
  std::vector<double> weights_;  ///< Normalized cluster weights.
  std::vector<linalg::Vector> inv_variances_;  ///< Diagonal metrics.
};

/// The query expansion approach of MARS [13]: each iteration re-clusters
/// the full relevant set into `num_representatives` local clusters
/// (hierarchical, as in [13]) and queries with the convex aggregate above.
///
/// This is the paper's "QEX" comparator in Fig. 10-13.
class QueryExpansion final : public core::RetrievalMethod {
 public:
  QueryExpansion(const linalg::FlatBlock* database,
                 const index::KnnIndex* knn, const QexOptions& options);

  std::string name() const override { return "qex"; }
  std::vector<index::Neighbor> InitialQuery(
      const linalg::Vector& query) override;
  std::vector<index::Neighbor> Feedback(
      const std::vector<core::RelevantItem>& marked) override;
  void Reset() override;
  const index::SearchStats& last_search_stats() const override {
    return last_stats_;
  }

  /// Current representatives (valid after a Feedback round).
  const std::vector<core::Cluster>& clusters() const { return clusters_; }

 private:
  const linalg::FlatBlock* database_;
  const index::KnnIndex* knn_;
  QexOptions options_;

  std::vector<linalg::Vector> relevant_points_;
  std::vector<double> relevant_scores_;
  std::unordered_set<int> seen_ids_;
  std::vector<core::Cluster> clusters_;
  index::SearchStats last_stats_;
};

}  // namespace qcluster::baselines

#endif  // QCLUSTER_BASELINES_QEX_H_
