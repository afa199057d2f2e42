#ifndef QCLUSTER_CORE_CLASSIFIER_H_
#define QCLUSTER_CORE_CLASSIFIER_H_

#include <span>
#include <vector>

#include "core/cluster.h"
#include "stats/covariance_scheme.h"

namespace qcluster::core {

/// Parameters of the adaptive Bayesian classification stage (Sec. 4.2).
struct ClassifierOptions {
  /// Significance level α of the effective radius χ²_p(α) (Lemma 1). The
  /// paper's typical setting keeps 95-99% of a cluster's mass inside, i.e.
  /// α in [0.01, 0.05].
  double alpha = 0.05;
  /// Covariance handling for S_pooled^{-1} and the radius test.
  stats::CovarianceScheme scheme = stats::CovarianceScheme::kDiagonal;
  /// Variance floor applied to per-cluster covariances so singleton and
  /// degenerate clusters keep a finite metric.
  double min_variance = 1e-4;
  /// When true, uses each cluster's own covariance in the discriminant —
  /// the full quadratic form of the paper's "important special case" of
  /// Eq. 8, d̂ᵢ(x) = −½ln|Sᵢ| − ½(x−x̄ᵢ)'Sᵢ⁻¹(x−x̄ᵢ) + ln wᵢ (QDA). When
  /// false (default), the paper's pooled simplification of Eq. 10 (LDA).
  bool use_individual_covariances = false;
};

/// The Bayesian classification function d̂_i(x) of Eq. 10 evaluated for
/// every cluster:
///   d̂_i(x) = −½ (x − x̄_i)' S_pooled^{-1} (x − x̄_i) + ln w_i
/// with S_pooled from Eq. 7 and w_i = m_i / Σ m the normalized cluster
/// weights. Larger is better (maximum posterior).
std::vector<double> ClassificationScores(const std::vector<Cluster>& clusters,
                                         const linalg::Vector& x,
                                         const ClassifierOptions& options);

/// Decision of Algorithm 2 for a single point.
struct ClassificationDecision {
  int cluster = -1;         ///< Chosen cluster, or -1 to start a new one.
  double score = 0.0;       ///< Winning d̂ value.
  double radius_d2 = 0.0;   ///< (x − x̄_k)' S_k^{-1} (x − x̄_k) of the winner.
  double radius = 0.0;      ///< Effective radius χ²_p(α).
};

/// Algorithm 2: picks the cluster maximizing d̂, then accepts the point only
/// if it lies within the winner's effective radius (Eq. 6 with the cluster's
/// own inverse covariance); otherwise the point must found a new cluster.
/// Requires a non-empty cluster list.
ClassificationDecision Classify(const std::vector<Cluster>& clusters,
                                const linalg::Vector& x,
                                const ClassifierOptions& options);

/// Runs Algorithm 2 over a batch of scored points, mutating `clusters`:
/// each point is appended to its chosen cluster or appended as a new
/// singleton cluster. Starts a first cluster when `clusters` is empty.
/// Returns the per-point decisions.
std::vector<ClassificationDecision> ClassifyBatch(
    std::vector<Cluster>& clusters, std::span<const linalg::Vector> points,
    std::span<const double> scores, const ClassifierOptions& options);

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_CLASSIFIER_H_
