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
  const int dim = a.dim();
  WeightedStats out(dim);
  out.n_ = a.n_ + b.n_;
  out.weight_ = a.weight_ + b.weight_;  // Eq. 11.
  // Eq. 12: weight-proportional combination of the means.
  const double wa = a.weight_ / out.weight_;
  const double wb = b.weight_ / out.weight_;
  Vector diff(static_cast<std::size_t>(dim));
  for (std::size_t i = 0; i < diff.size(); ++i) {
    out.mean_[i] = wa * a.mean_[i] + wb * b.mean_[i];
    diff[i] = a.mean_[i] - b.mean_[i];
  }
  // Scatter identity equivalent to Eq. 13, entry by entry:
  // S = (S_a + S_b) + (d_r d_c) · m_a m_b / m.
  const double cross = a.weight_ * b.weight_ / out.weight_;
  for (int r = 0; r < dim; ++r) {
    const double dr = diff[static_cast<std::size_t>(r)];
    for (int c = 0; c < dim; ++c) {
      out.scatter_(r, c) = a.scatter_(r, c) + b.scatter_(r, c) +
                           dr * diff[static_cast<std::size_t>(c)] * cross;
    }
  }
  return out;
}

void WeightedStats::AddPoint(const Vector& x, double w) {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == dim());
  QCLUSTER_CHECK(w > 0.0);
  // Weighted Welford update: exact for mean and scatter. delta is x minus
  // the old mean, delta2 x minus the new one.
  const double new_weight = weight_ + w;
  const double step = w / new_weight;
  Vector delta(x.size());
  Vector delta2(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    delta[i] = x[i] - mean_[i];
    mean_[i] = mean_[i] + step * delta[i];
    delta2[i] = x[i] - mean_[i];
  }
  // scatter += w * delta * delta2', symmetrized to stay exactly symmetric
  // under floating point.
  const double half_w = 0.5 * w;
  const int d = dim();
  for (int r = 0; r < d; ++r) {
    const double dr = delta[static_cast<std::size_t>(r)];
    const double d2r = delta2[static_cast<std::size_t>(r)];
    for (int c = 0; c < d; ++c) {
      scatter_(r, c) = scatter_(r, c) +
                       (dr * delta2[static_cast<std::size_t>(c)] +
                        d2r * delta[static_cast<std::size_t>(c)]) *
                           half_w;
    }
  }
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
