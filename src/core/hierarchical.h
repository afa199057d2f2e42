#ifndef QCLUSTER_CORE_HIERARCHICAL_H_
#define QCLUSTER_CORE_HIERARCHICAL_H_

#include <vector>

#include "core/cluster.h"

namespace qcluster::core {

/// The initial clustering of the first feedback round (Algorithm 1 step 1;
/// Sec. 4.1: "we use the hierarchical clustering algorithm that groups data
/// into hyperspherical regions"). Bottom-up agglomerative clustering: every
/// point starts as a singleton cluster, and the pair with the closest
/// centroids (squared Euclidean distance) merges until `target_clusters`
/// remain. Scores weight the centroids exactly as in Eq. 2.
///
/// Selection rule: the smallest distance wins, ties go to the earlier
/// (i, j) pair of the current list, and NaN sorts after every number; when
/// no distance is below +∞ (NaN or overflowing features) the first pair
/// merges. A merged cluster takes the lower slot of its pair and survivors
/// keep their order, so the result lists clusters in the order of their
/// first member in `points`. A ClosestPairTable scores each pair once:
/// n(n − 1)/2 doubles for the pass (39.6 KB at n = 100), and C(n, 2) plus
/// the merged cluster's pairs after each merge (9,800 squared distances
/// from 100 points down to 3). QEX re-clusters every mark of the session
/// with it each round.
std::vector<Cluster> HierarchicalCluster(
    const std::vector<linalg::Vector>& points,
    const std::vector<double>& scores, int target_clusters);

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_HIERARCHICAL_H_
