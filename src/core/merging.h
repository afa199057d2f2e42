#ifndef QCLUSTER_CORE_MERGING_H_
#define QCLUSTER_CORE_MERGING_H_

#include <vector>

#include "core/cluster.h"
#include "stats/covariance_scheme.h"

namespace qcluster::core {

/// Parameters of the cluster-merging stage (Sec. 4.3, Algorithm 3).
struct MergeOptions {
  /// Significance level α of the Hotelling T² location test. Smaller α
  /// raises the critical distance c², merging more aggressively.
  double alpha = 0.05;
  /// Target number of clusters ("a given size" in Algorithm 3). Merging
  /// continues past statistical significance, with progressively relaxed α
  /// (Algorithm 3 line 8, "increase critical distance c² using α"), until
  /// the cluster count is at most this.
  int max_clusters = 5;
  /// Covariance handling for S_pooled^{-1} in T² (Eq. 15).
  stats::CovarianceScheme scheme = stats::CovarianceScheme::kDiagonal;
  /// Variance floor for degenerate pooled covariances (pairs of singleton
  /// clusters have zero scatter).
  double min_variance = 1e-4;
};

/// Outcome summary of one merging pass.
struct MergeReport {
  int merges = 0;          ///< Number of merge operations performed.
  double final_alpha = 0;  ///< α in effect when the pass stopped.
  int forced_merges = 0;   ///< Merges forced by the max_clusters cap.
};

/// Algorithm 3: repeatedly merges the pair with the smallest Hotelling T²
/// (Eq. 14) while that pair passes T² ≤ c² (Eq. 16), relaxing α (and
/// finally forcing) while the cluster count exceeds `max_clusters`.
/// When a pair is too small for the F distribution (m_i + m_j ≤ p + 1,
/// inevitable for fresh singleton clusters), c² degrades to the asymptotic
/// χ²_p(α) threshold. Mutates `clusters` in place.
///
/// Selection rule: the smallest T² wins, ties go to the earlier (i, j)
/// pair of the current list, and NaN sorts after every number; when no T²
/// is below +∞ the first pair stands in (it fails every c² test, so only
/// an over-cap pass forces it). Survivors keep their order, and a merged
/// cluster takes the lower slot of its pair. A ClosestPairTable computes
/// each pair's T² once and, after a merge, only the merged cluster's: it
/// holds g(g − 1)/2 doubles for the pass. c² is computed only for the pair
/// a step merges, tests or forces.
MergeReport MergeClusters(std::vector<Cluster>& clusters,
                          const MergeOptions& options);

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_MERGING_H_
