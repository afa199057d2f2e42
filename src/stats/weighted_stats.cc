#include "stats/weighted_stats.h"

#include "common/check.h"

namespace qcluster::stats {

using linalg::Matrix;
using linalg::Vector;

WeightedStats::WeightedStats(int dim)
    : n_(0),
      weight_(0.0),
      mean_(static_cast<std::size_t>(dim), 0.0),
      scatter_(dim, dim, 0.0) {
  QCLUSTER_CHECK(dim > 0);
}

WeightedStats WeightedStats::FromPoints(const std::vector<Vector>& points,
                                        const std::vector<double>& weights) {
  QCLUSTER_CHECK(!points.empty());
  QCLUSTER_CHECK(points.size() == weights.size());
  WeightedStats stats(static_cast<int>(points.front().size()));
  for (std::size_t i = 0; i < points.size(); ++i) {
    stats.AddPoint(points[i], weights[i]);
  }
  return stats;
}

WeightedStats WeightedStats::FromPoints(const std::vector<Vector>& points) {
  return FromPoints(points, std::vector<double>(points.size(), 1.0));
}

WeightedStats WeightedStats::Merged(const WeightedStats& a,
                                    const WeightedStats& b) {
  QCLUSTER_CHECK(a.dim() == b.dim());
  if (a.n_ == 0) return b;
  if (b.n_ == 0) return a;
  WeightedStats out(a.dim());
  out.n_ = a.n_ + b.n_;
  out.weight_ = a.weight_ + b.weight_;  // Eq. 11.
  // Eq. 12: weight-proportional combination of the means.
  const double wa = a.weight_ / out.weight_;
  const double wb = b.weight_ / out.weight_;
  out.mean_ = linalg::Add(linalg::Scale(a.mean_, wa),
                          linalg::Scale(b.mean_, wb));
  // Scatter identity equivalent to Eq. 13.
  const Vector diff = linalg::Sub(a.mean_, b.mean_);
  const double cross = a.weight_ * b.weight_ / out.weight_;
  out.scatter_ = a.scatter_.Add(b.scatter_)
                     .Add(linalg::OuterProduct(diff, diff).Scale(cross));
  return out;
}

void WeightedStats::AddPoint(const Vector& x, double w) {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == dim());
  QCLUSTER_CHECK(w > 0.0);
  // Weighted Welford update: exact for mean and scatter.
  const double new_weight = weight_ + w;
  const Vector delta = linalg::Sub(x, mean_);
  const Vector mean_step = linalg::Scale(delta, w / new_weight);
  mean_ = linalg::Add(mean_, mean_step);
  const Vector delta2 = linalg::Sub(x, mean_);
  // scatter += w * delta * delta2', symmetrized to stay exactly symmetric
  // under floating point.
  const Matrix update = linalg::OuterProduct(delta, delta2)
                            .Add(linalg::OuterProduct(delta2, delta))
                            .Scale(0.5 * w);
  scatter_ = scatter_.Add(update);
  weight_ = new_weight;
  ++n_;
}

Matrix WeightedStats::Covariance() const {
  if (weight_ <= 1.0) return Matrix(dim(), dim(), 0.0);
  return scatter_.Scale(1.0 / (weight_ - 1.0));
}

Matrix PooledCovariance(const std::vector<const WeightedStats*>& groups) {
  QCLUSTER_CHECK(!groups.empty());
  const int dim = groups.front()->dim();
  Matrix sum(dim, dim, 0.0);
  double total_weight = 0.0;
  for (const WeightedStats* g : groups) {
    QCLUSTER_CHECK(g->dim() == dim);
    sum = sum.Add(g->scatter());
    total_weight += g->weight();
  }
  const double denom = total_weight - static_cast<double>(groups.size());
  if (denom > 0.0) return sum.Scale(1.0 / denom);
  // Degenerate denominator: every cluster is a singleton; keep the raw
  // scatter scale so callers still get a symmetric PSD matrix.
  return sum;
}

Matrix PooledCovariancePair(const WeightedStats& a, const WeightedStats& b) {
  QCLUSTER_CHECK(a.dim() == b.dim());
  const double total = a.weight() + b.weight();
  QCLUSTER_CHECK(total > 0.0);
  return a.scatter().Add(b.scatter()).Scale(1.0 / total);
}

}  // namespace qcluster::stats
