#ifndef QCLUSTER_BASELINES_QPM_H_
#define QCLUSTER_BASELINES_QPM_H_

#include <vector>

#include "core/retrieval_method.h"
#include "index/knn.h"

namespace qcluster::baselines {

/// Options for the query-point-movement baseline.
struct QpmOptions {
  int k = 100;
  /// Rocchio blending coefficients [14]: each iteration the query point
  /// moves to (alpha·q + beta·r̄) / (alpha + beta) where r̄ is the
  /// score-weighted centroid of the relevant set. The classic values keep
  /// the query anchored near the original example — the behavior of the
  /// MARS query-point movement the paper compares against. Setting
  /// rocchio_alpha = 0 jumps straight to the relevant centroid (an
  /// aggressive variant).
  double rocchio_alpha = 1.0;
  double rocchio_beta = 0.75;
};

/// The query point movement approach of MARS [15] (Rocchio-style): the
/// refined query is a single point — the score-weighted average of every
/// relevant image seen so far — and the metric is a weighted Euclidean
/// distance whose per-dimension weight is inversely proportional to the
/// variance of the relevant values along that dimension (Sec. 2). Weights
/// are normalized to sum to the dimensionality.
///
/// This is the paper's "QPM" comparator in Fig. 10-13: a single convex
/// contour that cannot represent disjoint query regions.
class QueryPointMovement final : public core::RetrievalMethod {
 public:
  QueryPointMovement(const linalg::FlatBlock* database,
                     const index::KnnIndex* knn, const QpmOptions& options);

  std::string name() const override { return "qpm"; }
  std::vector<index::Neighbor> InitialQuery(
      const linalg::Vector& query) override;
  std::vector<index::Neighbor> Feedback(
      const std::vector<core::RelevantItem>& marked) override;
  void Reset() override;

  /// The current single query point (valid after a Feedback round).
  const linalg::Vector& query_point() const { return query_point_; }
  /// The current per-dimension weights.
  const linalg::Vector& weights() const { return weights_; }

 private:
  std::vector<index::Neighbor> RunQuery();

  QpmOptions options_;
  linalg::Vector query_point_;
  linalg::Vector weights_;
};

}  // namespace qcluster::baselines

#endif  // QCLUSTER_BASELINES_QPM_H_
