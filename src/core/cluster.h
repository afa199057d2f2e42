#ifndef QCLUSTER_CORE_CLUSTER_H_
#define QCLUSTER_CORE_CLUSTER_H_

#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "stats/covariance_scheme.h"
#include "stats/weighted_stats.h"

namespace qcluster::core {

/// A query cluster: a weighted set of relevant images summarized by the
/// statistics of Table 1 (centroid x̄_i, scatter/covariance S_i, point count
/// n_i, relevance-score weight m_i).
///
/// The raw member points are retained for evaluation (the leave-one-out
/// quality measure of Sec. 4.5) and debugging; all retrieval-path algorithms
/// consume only the summary statistics, which is what makes the adaptive
/// scheme cheap (no re-clustering, Sec. 4).
class Cluster {
 public:
  /// Creates an empty cluster of dimension `dim`.
  explicit Cluster(int dim);

  /// Creates a singleton cluster holding `x` with relevance score `score`.
  [[nodiscard]] static Cluster FromPoint(const linalg::Vector& x,
                                         double score);

  /// Merges two clusters using only their summaries (Eq. 11-13). Point lists
  /// are concatenated for bookkeeping, `a`'s first; pass the operands with
  /// std::move to hand their lists over instead of copying them.
  [[nodiscard]] static Cluster Merged(Cluster a, Cluster b);

  /// Adds a point with relevance score `score > 0`.
  void Add(const linalg::Vector& x, double score);

  int dim() const { return stats_.dim(); }
  /// Number of member points n_i.
  int size() const { return stats_.n(); }
  /// Sum of relevance scores m_i.
  double weight() const { return stats_.weight(); }
  /// Weighted centroid x̄_i (Eq. 2).
  const linalg::Vector& centroid() const { return stats_.mean(); }
  /// Full summary statistics.
  const stats::WeightedStats& stats() const { return stats_; }

  /// Weighted covariance S_i (Eq. 3 normalized by m_i − 1).
  linalg::Matrix Covariance() const { return stats_.Covariance(); }

  /// S_i^{-1} under `scheme`, with every diagonal entry of S_i floored at
  /// `min_variance` first so that singleton or degenerate clusters still
  /// yield a finite metric. Cached per scheme until the cluster changes.
  const linalg::Matrix& InverseCovariance(stats::CovarianceScheme scheme,
                                          double min_variance) const;

  /// Squared cluster distance d²(x, x̄_i) = (x − x̄_i)' S_i^{-1} (x − x̄_i)
  /// (Eq. 1) under `scheme`.
  double DistanceSquared(const linalg::Vector& x,
                         stats::CovarianceScheme scheme,
                         double min_variance) const;

  /// Member points (parallel to `scores()`).
  const std::vector<linalg::Vector>& points() const { return points_; }
  const std::vector<double>& scores() const { return scores_; }

 private:
  void InvalidateCache();
  linalg::Matrix FlooredCovariance(double min_variance) const;

  stats::WeightedStats stats_;
  std::vector<linalg::Vector> points_;
  std::vector<double> scores_;

  // Lazily computed inverse covariance, one slot per scheme.
  mutable std::optional<linalg::Matrix> inverse_cache_[2];
  mutable double cached_min_variance_[2] = {-1.0, -1.0};
};

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_CLUSTER_H_
