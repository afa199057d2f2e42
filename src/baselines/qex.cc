#include "baselines/qex.h"

#include "common/check.h"
#include "core/hierarchical.h"

namespace qcluster::baselines {

using linalg::Vector;

QexDistance::QexDistance(const std::vector<core::Cluster>& clusters,
                         double min_variance)
    : dim_(0) {
  QCLUSTER_CHECK(!clusters.empty());
  dim_ = clusters.front().dim();
  double total_weight = 0.0;
  for (const core::Cluster& c : clusters) total_weight += c.weight();
  QCLUSTER_CHECK(total_weight > 0.0);
  for (const core::Cluster& c : clusters) {
    QCLUSTER_CHECK(c.dim() == dim_);
    centroids_.push_back(c.centroid());
    weights_.push_back(c.weight() / total_weight);
    // MARS-style diagonal metric per representative.
    const linalg::Matrix cov = c.Covariance();
    Vector inv_var(static_cast<std::size_t>(dim_));
    for (int d = 0; d < dim_; ++d) {
      inv_var[static_cast<std::size_t>(d)] =
          1.0 / std::max(cov(d, d), min_variance);
    }
    inv_variances_.push_back(std::move(inv_var));
  }
}

double QexDistance::DistanceRow(const double* x) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < centroids_.size(); ++i) {
    double d2 = 0.0;
    for (int d = 0; d < dim_; ++d) {
      const double diff = x[static_cast<std::size_t>(d)] -
                          centroids_[i][static_cast<std::size_t>(d)];
      d2 += inv_variances_[i][static_cast<std::size_t>(d)] * diff * diff;
    }
    sum += weights_[i] * d2;
  }
  return sum;
}

double QexDistance::MinDistance(const index::Rect& rect) const {
  // Each term is a weighted Euclidean form: sum the per-representative
  // rectangle lower bounds.
  double sum = 0.0;
  for (std::size_t i = 0; i < centroids_.size(); ++i) {
    double d2 = 0.0;
    for (int d = 0; d < dim_; ++d) {
      const std::size_t sd = static_cast<std::size_t>(d);
      double diff = 0.0;
      if (centroids_[i][sd] < rect.lo[sd]) {
        diff = rect.lo[sd] - centroids_[i][sd];
      } else if (centroids_[i][sd] > rect.hi[sd]) {
        diff = centroids_[i][sd] - rect.hi[sd];
      }
      d2 += inv_variances_[i][sd] * diff * diff;
    }
    sum += weights_[i] * d2;
  }
  return sum;
}

QueryExpansion::QueryExpansion(const linalg::FlatBlock* database,
                               const index::KnnIndex* knn,
                               const QexOptions& options)
    : database_(database), knn_(knn), options_(options) {
  QCLUSTER_CHECK(database != nullptr && knn != nullptr);
  QCLUSTER_CHECK(options.k > 0);
  QCLUSTER_CHECK(options.num_representatives >= 1);
}

std::vector<index::Neighbor> QueryExpansion::InitialQuery(
    const Vector& query) {
  Reset();
  last_stats_ = index::SearchStats{};
  const index::EuclideanDistance dist(query);
  return knn_->Search(dist, options_.k, &last_stats_);
}

std::vector<index::Neighbor> QueryExpansion::Feedback(
    const std::vector<core::RelevantItem>& marked) {
  for (const core::RelevantItem& item : marked) {
    QCLUSTER_CHECK(0 <= item.id &&
                   item.id < static_cast<int>(database_->size()));
    QCLUSTER_CHECK(item.score > 0.0);
    if (!seen_ids_.insert(item.id).second) continue;
    relevant_points_.push_back((*database_)[static_cast<std::size_t>(item.id)]);
    relevant_scores_.push_back(item.score);
  }
  QCLUSTER_CHECK_MSG(!relevant_points_.empty(),
                     "QEX feedback requires at least one relevant image");

  // Re-cluster the full relevant set from scratch each iteration — the
  // costlier scheme [13] uses, contrasted with Qcluster's incremental
  // classification.
  clusters_ = core::HierarchicalCluster(relevant_points_, relevant_scores_,
                                       options_.num_representatives);

  last_stats_ = index::SearchStats{};
  const QexDistance dist(clusters_, options_.min_variance);
  return knn_->Search(dist, options_.k, &last_stats_);
}

void QueryExpansion::Reset() {
  relevant_points_.clear();
  relevant_scores_.clear();
  seen_ids_.clear();
  clusters_.clear();
  last_stats_ = index::SearchStats{};
}

}  // namespace qcluster::baselines
