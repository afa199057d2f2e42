#include "core/retrieval_method.h"

#include <cmath>

#include "common/check.h"

namespace qcluster::core {

RetrievalMethod::RetrievalMethod(const linalg::FlatBlock* database,
                                 const index::KnnIndex* knn, int k)
    : database_(database), knn_(knn), k_(k) {
  QCLUSTER_CHECK(database != nullptr);
  QCLUSTER_CHECK(knn != nullptr);
  QCLUSTER_CHECK(k > 0);
}

std::vector<index::Neighbor> RetrievalMethod::InitialQuery(
    const linalg::Vector& query) {
  Reset();
  return Search(index::EuclideanDistance(query));
}

void RetrievalMethod::Reset() {
  seen_ids_.clear();
  relevant_points_.clear();
  relevant_scores_.clear();
  last_stats_ = index::SearchStats{};
}

std::size_t RetrievalMethod::AddMarked(
    const std::vector<RelevantItem>& marked) {
  const std::size_t first = relevant_points_.size();
  for (const RelevantItem& item : marked) {
    QCLUSTER_CHECK_MSG(
        0 <= item.id && item.id < static_cast<int>(database_->size()),
        "marked id outside the database");
    QCLUSTER_CHECK_MSG(std::isfinite(item.score) && item.score > 0.0,
                       "a relevance score must be finite and > 0");
    if (!seen_ids_.insert(item.id).second) continue;
    relevant_points_.push_back((*database_)[static_cast<std::size_t>(item.id)]);
    relevant_scores_.push_back(item.score);
  }
  QCLUSTER_CHECK_MSG(!relevant_points_.empty(),
                     "feedback requires at least one relevant image");
  return first;
}

std::vector<index::Neighbor> RetrievalMethod::Search(
    const index::DistanceFunction& dist, index::WarmStart* warm) {
  last_stats_ = index::SearchStats{};
  if (warm != nullptr) return knn_->SearchWarm(dist, k_, *warm, &last_stats_);
  return knn_->Search(dist, k_, &last_stats_);
}

}  // namespace qcluster::core
