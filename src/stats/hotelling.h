#ifndef QCLUSTER_STATS_HOTELLING_H_
#define QCLUSTER_STATS_HOTELLING_H_

#include "common/status.h"
#include "stats/covariance_scheme.h"
#include "stats/weighted_stats.h"

namespace qcluster::stats {

/// Computes Hotelling's T² between the means of two summarized clusters:
///   T² = (m_i m_j / (m_i + m_j)) (x̄_i − x̄_j)' S_pooled^{-1} (x̄_i − x̄_j)
/// with S_pooled from Eq. 15 and S_pooled^{-1} estimated under `scheme`.
double HotellingT2(const WeightedStats& a, const WeightedStats& b,
                   CovarianceScheme scheme);

/// T² computed against a caller-supplied pooled inverse covariance (used
/// when several pairs share the same pooled matrix, and by the PCA form of
/// Eq. 18-19 where the inverse is diagonal in the principal basis).
double HotellingT2WithInverse(const WeightedStats& a, const WeightedStats& b,
                              const linalg::Matrix& pooled_inverse);

/// The critical distance of Eq. 16:
///   c² = (m_i + m_j − 2) p / (m_i + m_j − p − 1) · F_{p, m_i+m_j−p−1}(alpha).
/// Fails with kFailedPrecondition when m_i + m_j ≤ p + 1 (the F distribution
/// degenerates; the paper's experiments always satisfy the precondition).
Result<double> HotellingCriticalDistance(double m_total, int dim,
                                         double alpha);

}  // namespace qcluster::stats

#endif  // QCLUSTER_STATS_HOTELLING_H_
