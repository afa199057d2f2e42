#include "stats/hotelling.h"

#include "common/check.h"
#include "core/invariants.h"
#include "stats/distributions.h"

namespace qcluster::stats {

using linalg::Matrix;
using linalg::Vector;

double HotellingT2(const WeightedStats& a, const WeightedStats& b,
                   CovarianceScheme scheme) {
  const Matrix pooled = PooledCovariancePair(a, b);
  const Matrix inv = InvertCovariance(pooled, scheme);
  return HotellingT2WithInverse(a, b, inv);
}

double HotellingT2WithInverse(const WeightedStats& a, const WeightedStats& b,
                              const Matrix& pooled_inverse) {
  QCLUSTER_CHECK(a.dim() == b.dim());
  // Eq. 14-16 rest on a symmetric PSD pooled inverse; an indefinite one can
  // drive T² negative and invert every merge decision.
  QCLUSTER_AUDIT(
      core::ValidateSymmetricPsd(pooled_inverse, "Hotelling pooled inverse"));
  const Vector diff = linalg::Sub(a.mean(), b.mean());
  const double quad = linalg::QuadraticForm(diff, pooled_inverse, diff);
  const double m_total = a.weight() + b.weight();
  QCLUSTER_CHECK(m_total > 0.0);
  const double t2 = a.weight() * b.weight() / m_total * quad;
  QCLUSTER_AUDIT(
      core::ValidateHotellingT2(t2, m_total, diff, pooled_inverse));
  return t2;
}

Result<double> HotellingCriticalDistance(double m_total, int dim,
                                         double alpha) {
  QCLUSTER_CHECK(dim > 0);
  QCLUSTER_CHECK(0.0 < alpha && alpha < 1.0);
  const double p = dim;
  const double dof2 = m_total - p - 1.0;
  if (dof2 <= 0.0) {
    return Status::FailedPrecondition(
        "Hotelling test needs m_i + m_j > p + 1");
  }
  const double f = FUpperQuantile(alpha, p, dof2);
  return (m_total - 2.0) * p / dof2 * f;
}

}  // namespace qcluster::stats
