#include "core/cluster.h"

#include <iterator>
#include <utility>

#include "common/check.h"
#include "core/invariants.h"

namespace qcluster::core {

using linalg::Matrix;
using linalg::Vector;
using stats::CovarianceScheme;

Cluster::Cluster(int dim) : stats_(dim) {}

Cluster Cluster::FromPoint(const Vector& x, double score) {
  Cluster c(static_cast<int>(x.size()));
  c.Add(x, score);
  return c;
}

Cluster Cluster::Merged(Cluster a, Cluster b) {
  QCLUSTER_CHECK(a.dim() == b.dim());
  stats::WeightedStats merged =
      stats::WeightedStats::Merged(a.stats_, b.stats_);
  // Eq. 11-13: the merged summary must close over the operands' weights,
  // means, and scatters (independent recomputation in the validator).
  QCLUSTER_AUDIT(ValidateMergeClosure(a.stats_, b.stats_, merged));
  a.stats_ = std::move(merged);
  a.points_.insert(a.points_.end(), std::make_move_iterator(b.points_.begin()),
                   std::make_move_iterator(b.points_.end()));
  a.scores_.insert(a.scores_.end(), b.scores_.begin(), b.scores_.end());
  a.InvalidateCache();
  return a;
}

void Cluster::Add(const Vector& x, double score) {
  stats_.AddPoint(x, score);
  points_.push_back(x);
  scores_.push_back(score);
  InvalidateCache();
}

const Matrix& Cluster::InverseCovariance(CovarianceScheme scheme,
                                         double min_variance) const {
  const int slot = scheme == CovarianceScheme::kInverse ? 0 : 1;
  if (!inverse_cache_[slot].has_value() ||
      cached_min_variance_[slot] != min_variance) {
    inverse_cache_[slot] =
        stats::InvertCovariance(FlooredCovariance(min_variance), scheme);
    cached_min_variance_[slot] = min_variance;
  }
  return *inverse_cache_[slot];
}

double Cluster::DistanceSquared(const Vector& x, CovarianceScheme scheme,
                                double min_variance) const {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == dim());
  const Vector diff = linalg::Sub(x, centroid());
  return linalg::QuadraticForm(diff, InverseCovariance(scheme, min_variance),
                               diff);
}

void Cluster::InvalidateCache() {
  inverse_cache_[0].reset();
  inverse_cache_[1].reset();
}

Matrix Cluster::FlooredCovariance(double min_variance) const {
  QCLUSTER_CHECK(min_variance >= 0.0);
  Matrix cov = stats_.Covariance();
  for (int i = 0; i < cov.rows(); ++i) {
    if (cov(i, i) < min_variance) cov(i, i) = min_variance;
  }
  return cov;
}

}  // namespace qcluster::core
