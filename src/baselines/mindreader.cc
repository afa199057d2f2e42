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
    : database_(database), knn_(knn), options_(options) {
  QCLUSTER_CHECK(database != nullptr && knn != nullptr);
  QCLUSTER_CHECK(options.k > 0);
  QCLUSTER_CHECK(options.min_variance > 0.0);
}

std::vector<index::Neighbor> MindReader::InitialQuery(const Vector& query) {
  Reset();
  query_point_ = query;
  metric_ = Matrix::Identity(static_cast<int>(query.size()));
  last_stats_ = index::SearchStats{};
  const index::EuclideanDistance dist(query);
  return knn_->Search(dist, options_.k, &last_stats_);
}

std::vector<index::Neighbor> MindReader::Feedback(
    const std::vector<core::RelevantItem>& marked) {
  for (const core::RelevantItem& item : marked) {
    QCLUSTER_CHECK(0 <= item.id &&
                   item.id < static_cast<int>(database_->size()));
    QCLUSTER_CHECK(item.score > 0.0);
    if (!seen_ids_.insert(item.id).second) continue;
    relevant_points_.push_back((*database_)[static_cast<std::size_t>(item.id)]);
    relevant_scores_.push_back(item.score);
  }
  QCLUSTER_CHECK_MSG(
      !relevant_points_.empty(),
      "MindReader feedback requires at least one relevant image");

  // MindReader's optimal solution: query point = weighted centroid, metric
  // = inverse of the weighted covariance of the relevant set.
  const stats::WeightedStats stats =
      stats::WeightedStats::FromPoints(relevant_points_, relevant_scores_);
  query_point_ = stats.mean();
  Matrix cov = stats.Covariance();
  for (int d = 0; d < cov.rows(); ++d) {
    if (cov(d, d) < options_.min_variance) cov(d, d) = options_.min_variance;
  }
  metric_ = stats::InvertCovariance(cov, stats::CovarianceScheme::kInverse);

  last_stats_ = index::SearchStats{};
  const index::MahalanobisDistance dist(query_point_, metric_);
  return knn_->Search(dist, options_.k, &last_stats_);
}

void MindReader::Reset() {
  relevant_points_.clear();
  relevant_scores_.clear();
  seen_ids_.clear();
  query_point_.clear();
  metric_ = Matrix();
  last_stats_ = index::SearchStats{};
}

}  // namespace qcluster::baselines
