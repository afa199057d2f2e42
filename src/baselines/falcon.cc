#include "baselines/falcon.h"

#include <cmath>

#include "common/check.h"

namespace qcluster::baselines {

using linalg::Vector;

FalconDistance::FalconDistance(std::vector<Vector> good_set, double alpha)
    : dim_(0), points_(std::move(good_set)), alpha_(alpha) {
  QCLUSTER_CHECK(!points_.empty());
  QCLUSTER_CHECK_MSG(alpha < 0.0, "FALCON uses negative alpha (fuzzy OR)");
  dim_ = static_cast<int>(points_.front().size());
  for (const Vector& g : points_) {
    QCLUSTER_CHECK(static_cast<int>(g.size()) == dim_);
  }
}

double FalconDistance::DistanceRow(const double* x) const {
  std::vector<double> distances(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < points_[i].size(); ++j) {
      const double d = points_[i][j] - x[j];
      sum += d * d;
    }
    distances[i] = std::sqrt(sum);
  }
  return Aggregate(distances);
}

double FalconDistance::MinDistance(const index::Rect& rect) const {
  // The aggregate is monotone in every member distance, so plugging in the
  // per-member rectangle lower bounds yields a valid lower bound.
  std::vector<double> distances(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    distances[i] = std::sqrt(rect.SquaredEuclideanDistance(points_[i]));
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
    : RetrievalMethod(database, knn, options.k), options_(options) {
  QCLUSTER_CHECK(options.alpha < 0.0);
}

std::vector<index::Neighbor> Falcon::Feedback(
    const std::vector<core::RelevantItem>& marked) {
  AddMarked(marked);
  return Search(FalconDistance(relevant_points(), options_.alpha));
}

}  // namespace qcluster::baselines
