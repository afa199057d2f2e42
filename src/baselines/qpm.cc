#include "baselines/qpm.h"

#include <cmath>

#include "common/check.h"

namespace qcluster::baselines {

using linalg::Vector;

namespace {

/// Standard-deviation floor of the re-weighting: keeps the weight finite on
/// dimensions where every relevant value coincides.
constexpr double kMinStddev = 1e-3;

}  // namespace

QueryPointMovement::QueryPointMovement(const linalg::FlatBlock* database,
                                       const index::KnnIndex* knn,
                                       const QpmOptions& options)
    : RetrievalMethod(database, knn, options.k), options_(options) {}

std::vector<index::Neighbor> QueryPointMovement::InitialQuery(
    const Vector& query) {
  Reset();
  query_point_ = query;
  weights_.assign(query.size(), 1.0);
  return RunQuery();
}

std::vector<index::Neighbor> QueryPointMovement::Feedback(
    const std::vector<core::RelevantItem>& marked) {
  AddMarked(marked);
  const std::vector<Vector>& points = relevant_points();
  const std::vector<double>& scores = relevant_scores();

  const std::size_t dim = points.front().size();
  // Rocchio [14]: blend the current query point toward the score-weighted
  // centroid of the relevant set. With the classic coefficients the query
  // stays anchored near the original example, as in MARS [15].
  Vector centroid(dim, 0.0);
  double total_score = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    linalg::Axpy(scores[i], points[i], centroid);
    total_score += scores[i];
  }
  centroid = linalg::Scale(centroid, 1.0 / total_score);

  const double blend_total = options_.rocchio_alpha + options_.rocchio_beta;
  QCLUSTER_CHECK(blend_total > 0.0);
  const Vector blended =
      linalg::Add(linalg::Scale(query_point_, options_.rocchio_alpha),
                  linalg::Scale(centroid, options_.rocchio_beta));
  query_point_ = linalg::Scale(blended, 1.0 / blend_total);

  // Re-weighting: weight_j = 1 / sigma_j of the relevant values along each
  // dimension, then normalized so the weights sum to the dimensionality
  // (pure scale has no effect on ranking; normalization keeps values
  // interpretable).
  Vector variance(dim, 0.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      const double d = points[i][j] - centroid[j];
      variance[j] += scores[i] * d * d;
    }
  }
  weights_.assign(dim, 1.0);
  double weight_sum = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double sigma =
        std::max(std::sqrt(variance[j] / total_score), kMinStddev);
    weights_[j] = 1.0 / sigma;
    weight_sum += weights_[j];
  }
  if (weight_sum > 0.0) {
    for (double& w : weights_) w *= static_cast<double>(dim) / weight_sum;
  }
  return RunQuery();
}

void QueryPointMovement::Reset() {
  RetrievalMethod::Reset();
  query_point_.clear();
  weights_.clear();
}

std::vector<index::Neighbor> QueryPointMovement::RunQuery() {
  return Search(index::MahalanobisDistance(
      query_point_, linalg::Matrix::Diagonal(weights_)));
}

}  // namespace qcluster::baselines
