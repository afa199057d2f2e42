#ifndef QCLUSTER_STATS_WEIGHTED_STATS_H_
#define QCLUSTER_STATS_WEIGHTED_STATS_H_

#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace qcluster::stats {

/// Sufficient statistics of a weighted point set — the per-cluster summary
/// the whole paper operates on. Holds exactly the quantities of Table 1:
///
///  * `n`       — number of points n_i,
///  * `weight`  — m_i, the sum of relevance scores (Definition before Eq. 8),
///  * `mean`    — the score-weighted centroid x̄_i (Eq. 2),
///  * `scatter` — Σ_k v_ik (x_ik − x̄_i)(x_ik − x̄_i)' (Eq. 3).
///
/// The scatter (unnormalized second moment) is stored rather than the
/// covariance because the paper's merge rule (Eq. 11-13) and pooled
/// covariances (Eq. 7, 15) are exact linear identities on scatters.
class WeightedStats {
 public:
  /// Constructs an empty summary of dimension `dim`.
  explicit WeightedStats(int dim);

  /// Builds the summary of `points` with per-point relevance scores
  /// `weights` (all positive).
  static WeightedStats FromPoints(const std::vector<linalg::Vector>& points,
                                  const std::vector<double>& weights);

  /// Builds the summary of unit-weight `points`.
  static WeightedStats FromPoints(const std::vector<linalg::Vector>& points);

  /// Combines two summaries. Exactly reproduces Eq. 11-13: merged weight,
  /// weighted mean, and covariance (via the scatter identity
  /// S_new = S_i + S_j + (m_i m_j / m_new) (x̄_i − x̄_j)(x̄_i − x̄_j)').
  static WeightedStats Merged(const WeightedStats& a, const WeightedStats& b);

  /// Adds one point with weight `w > 0` (incremental update; numerically
  /// equivalent to rebuilding from all points).
  void AddPoint(const linalg::Vector& x, double w);

  int dim() const { return static_cast<int>(mean_.size()); }
  int n() const { return n_; }
  double weight() const { return weight_; }
  const linalg::Vector& mean() const { return mean_; }
  const linalg::Matrix& scatter() const { return scatter_; }

  /// Weighted sample covariance S_i with the (m_i − 1) divisor used by the
  /// merge rule (Eq. 13). Returns the zero matrix when weight <= 1.
  linalg::Matrix Covariance() const;

 private:
  int n_;
  double weight_;
  linalg::Vector mean_;
  linalg::Matrix scatter_;
};

/// Pooled inverse-covariance source for the Bayesian classifier (Eq. 7):
/// S_pooled = Σ_i (m_i − 1) S_i / (Σ_i m_i − g) = Σ_i scatter_i / (Σ m_i − g).
/// Falls back to the average scatter normalization when the denominator is
/// not positive (tiny clusters).
linalg::Matrix PooledCovariance(const std::vector<const WeightedStats*>& groups);

/// Two-sample pooled covariance of Eq. 15:
/// S_pooled = (scatter_i + scatter_j) / (m_i + m_j).
linalg::Matrix PooledCovariancePair(const WeightedStats& a,
                                    const WeightedStats& b);

}  // namespace qcluster::stats

#endif  // QCLUSTER_STATS_WEIGHTED_STATS_H_
