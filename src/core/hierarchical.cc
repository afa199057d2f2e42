#include "core/hierarchical.h"

#include "common/check.h"
#include "common/metrics.h"
#include "core/closest_pair.h"

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
  if (static_cast<int>(clusters.size()) <= target_clusters) return clusters;

  ClosestPairTable table(clusters, [](const Cluster& a, const Cluster& b) {
    return linalg::SquaredDistance(a.centroid(), b.centroid());
  });
  while (static_cast<int>(clusters.size()) > target_clusters) {
    table.Merge(table.Closest());
  }
  MetricAdd("hierarchical.pair_scores", table.scores());
  return clusters;
}

}  // namespace qcluster::core
