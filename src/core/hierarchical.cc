#include "core/hierarchical.h"

#include <limits>

#include "common/check.h"

namespace qcluster::core {

using linalg::Vector;

std::vector<Cluster> HierarchicalCluster(const std::vector<Vector>& points,
                                         const std::vector<double>& scores,
                                         int target_clusters) {
  QCLUSTER_CHECK(points.size() == scores.size());
  QCLUSTER_CHECK(target_clusters >= 1);

  std::vector<Cluster> clusters;
  clusters.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    clusters.push_back(Cluster::FromPoint(points[i], scores[i]));
  }

  while (static_cast<int>(clusters.size()) > target_clusters) {
    // O(g²) closest-pair scan per merge; relevant sets are small (≤ k).
    // The first pair stands in when no distance is below +inf (NaN or
    // overflowing features), so every pass still merges.
    int best_i = 0;
    int best_j = 1;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      for (std::size_t j = i + 1; j < clusters.size(); ++j) {
        const double d = linalg::SquaredDistance(clusters[i].centroid(),
                                                 clusters[j].centroid());
        if (d < best_d) {
          best_d = d;
          best_i = static_cast<int>(i);
          best_j = static_cast<int>(j);
        }
      }
    }
    clusters[static_cast<std::size_t>(best_i)] =
        Cluster::Merged(clusters[static_cast<std::size_t>(best_i)],
                        clusters[static_cast<std::size_t>(best_j)]);
    clusters.erase(clusters.begin() + best_j);
  }
  return clusters;
}

}  // namespace qcluster::core
