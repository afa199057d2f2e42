#include "baselines/mindreader.h"

#include "common/check.h"
#include "stats/covariance_scheme.h"
#include "stats/weighted_stats.h"

namespace qcluster::baselines {

using linalg::Matrix;
using linalg::Vector;

MindReader::MindReader(const linalg::FlatBlock* database,
                       const index::KnnIndex* knn,
                       const MindReaderOptions& options)
    : RetrievalMethod(database, knn, options.k), options_(options) {
  QCLUSTER_CHECK(options.min_variance > 0.0);
}

std::vector<index::Neighbor> MindReader::InitialQuery(const Vector& query) {
  std::vector<index::Neighbor> result = RetrievalMethod::InitialQuery(query);
  query_point_ = query;
  metric_ = Matrix::Identity(static_cast<int>(query.size()));
  return result;
}

std::vector<index::Neighbor> MindReader::Feedback(
    const std::vector<core::RelevantItem>& marked) {
  AddMarked(marked);
  // MindReader's optimal solution: query point = weighted centroid, metric
  // = inverse of the weighted covariance of the relevant set.
  const stats::WeightedStats stats =
      stats::WeightedStats::FromPoints(relevant_points(), relevant_scores());
  query_point_ = stats.mean();
  Matrix cov = stats.Covariance();
  for (int d = 0; d < cov.rows(); ++d) {
    if (cov(d, d) < options_.min_variance) cov(d, d) = options_.min_variance;
  }
  metric_ = stats::InvertCovariance(cov, stats::CovarianceScheme::kInverse);
  return Search(index::MahalanobisDistance(query_point_, metric_));
}

void MindReader::Reset() {
  RetrievalMethod::Reset();
  query_point_.clear();
  metric_ = Matrix();
}

}  // namespace qcluster::baselines
