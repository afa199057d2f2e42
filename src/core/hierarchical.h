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
std::vector<Cluster> HierarchicalCluster(
    const std::vector<linalg::Vector>& points,
    const std::vector<double>& scores, int target_clusters);

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_HIERARCHICAL_H_
