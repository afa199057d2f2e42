#include "baselines/falcon.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qcluster::baselines {

using linalg::Vector;

namespace {

/// D_α = ((1/|G|) Σ d_i^α)^{1/α} over d_i = member_distance(g_i), summed in
/// good-set order. With α < 0 any zero distance dominates, so the first
/// d_i ≤ 0 returns 0. The distances are taken a block at a time into a stack
/// array and then raised to α: measured per row, that is faster than
/// interleaving each distance with its std::pow call, and it allocates
/// nothing.
template <typename MemberDistance>
double Aggregate(const std::vector<Vector>& good_set, double alpha,
                 MemberDistance member_distance) {
  constexpr std::size_t kBlock = 16;
  double d[kBlock];
  double sum = 0.0;
  for (std::size_t begin = 0; begin < good_set.size(); begin += kBlock) {
    const std::size_t count = std::min(kBlock, good_set.size() - begin);
    for (std::size_t i = 0; i < count; ++i) {
      d[i] = member_distance(good_set[begin + i]);
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (d[i] <= 0.0) return 0.0;
      sum += std::pow(d[i], alpha);
    }
  }
  sum /= static_cast<double>(good_set.size());
  return std::pow(sum, 1.0 / alpha);
}

}  // namespace

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
  return Aggregate(points_, alpha_, [x](const Vector& g) {
    double sum = 0.0;
    for (std::size_t j = 0; j < g.size(); ++j) {
      const double d = g[j] - x[j];
      sum += d * d;
    }
    return std::sqrt(sum);
  });
}

double FalconDistance::MinDistance(const index::Rect& rect) const {
  // The aggregate is monotone in every member distance, so plugging in the
  // per-member rectangle lower bounds yields a valid lower bound.
  return Aggregate(points_, alpha_, [&rect](const Vector& g) {
    return std::sqrt(rect.SquaredEuclideanDistance(g));
  });
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
