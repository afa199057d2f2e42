#include "baselines/falcon.h"

#include <cmath>

#include "common/check.h"

namespace qcluster::baselines {

using linalg::Vector;

FalconDistance::FalconDistance(std::vector<Vector> good_set, double alpha)
    : dim_(0), good_set_(std::move(good_set)), alpha_(alpha) {
  QCLUSTER_CHECK(!good_set_.empty());
  QCLUSTER_CHECK_MSG(alpha < 0.0, "FALCON uses negative alpha (fuzzy OR)");
  dim_ = static_cast<int>(good_set_.front().size());
  for (const Vector& g : good_set_) {
    QCLUSTER_CHECK(static_cast<int>(g.size()) == dim_);
  }
}

double FalconDistance::DistanceRow(const double* x) const {
  std::vector<double> distances(good_set_.size());
  for (std::size_t i = 0; i < good_set_.size(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < good_set_[i].size(); ++j) {
      const double d = good_set_[i][j] - x[j];
      sum += d * d;
    }
    distances[i] = std::sqrt(sum);
  }
  return Aggregate(distances);
}

double FalconDistance::MinDistance(const index::Rect& rect) const {
  // The aggregate is monotone in every member distance, so plugging in the
  // per-member rectangle lower bounds yields a valid lower bound.
  std::vector<double> distances(good_set_.size());
  for (std::size_t i = 0; i < good_set_.size(); ++i) {
    distances[i] = std::sqrt(rect.SquaredEuclideanDistance(good_set_[i]));
  }
  return Aggregate(distances);
}

double FalconDistance::Aggregate(const std::vector<double>& distances) const {
  // D_α = ((1/n) Σ d_i^α)^{1/α}; with α < 0 any zero distance dominates.
  double sum = 0.0;
  for (double d : distances) {
    if (d <= 0.0) return 0.0;
    sum += std::pow(d, alpha_);
  }
  sum /= static_cast<double>(distances.size());
  return std::pow(sum, 1.0 / alpha_);
}

Falcon::Falcon(const linalg::FlatBlock* database, const index::KnnIndex* knn,
               const FalconOptions& options)
    : database_(database), knn_(knn), options_(options) {
  QCLUSTER_CHECK(database != nullptr && knn != nullptr);
  QCLUSTER_CHECK(options.k > 0);
  QCLUSTER_CHECK(options.alpha < 0.0);
}

std::vector<index::Neighbor> Falcon::InitialQuery(const Vector& query) {
  Reset();
  last_stats_ = index::SearchStats{};
  const index::EuclideanDistance dist(query);
  return knn_->Search(dist, options_.k, &last_stats_);
}

std::vector<index::Neighbor> Falcon::Feedback(
    const std::vector<core::RelevantItem>& marked) {
  for (const core::RelevantItem& item : marked) {
    QCLUSTER_CHECK(0 <= item.id &&
                   item.id < static_cast<int>(database_->size()));
    if (!seen_ids_.insert(item.id).second) continue;
    good_set_.push_back((*database_)[static_cast<std::size_t>(item.id)]);
  }
  QCLUSTER_CHECK_MSG(!good_set_.empty(),
                     "FALCON feedback requires at least one relevant image");
  last_stats_ = index::SearchStats{};
  const FalconDistance dist(good_set_, options_.alpha);
  return knn_->Search(dist, options_.k, &last_stats_);
}

void Falcon::Reset() {
  good_set_.clear();
  seen_ids_.clear();
  last_stats_ = index::SearchStats{};
}

}  // namespace qcluster::baselines
