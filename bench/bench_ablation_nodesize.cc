// Ablation: index node capacity. The paper fixes the hybrid tree's node
// size to 4KB; here the BR-tree leaf capacity sweeps from 8 to 128 points
// and reports the per-query cost trade-off (small leaves prune tighter but
// touch more nodes; large leaves scan more points per leaf).

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/status.h"
#include "index/br_tree.h"

int main() {
  const qcluster::bench::BenchScale scale =
      qcluster::bench::BenchScale::FromEnv();
  const qcluster::dataset::FeatureSet set = qcluster::bench::BuildFeatures(
      qcluster::dataset::FeatureType::kColorMoments, scale);
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(set, scale.queries);

  std::printf("=== Ablation: BR-tree leaf capacity ===\n");
  std::printf("database: %d images, k = %d, %d queries\n\n", set.size(),
              scale.k, scale.queries);
  std::printf("%-12s %-10s %-16s %-14s %-12s\n", "leaf_size", "nodes",
              "distance evals", "leaf reads", "mean us");
  for (int leaf_size : {8, 16, 32, 64, 128}) {
    qcluster::index::BrTree::Options opt;
    opt.leaf_size = leaf_size;
    const qcluster::index::BrTree tree(&set.features, opt);
    qcluster::index::SearchStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    for (int id : queries) {
      const qcluster::index::EuclideanDistance dist(
          set.features[static_cast<std::size_t>(id)]);
      // Run for cost accounting (stats) and wall time; results unused.
      qcluster::DiscardResult(tree.Search(dist, scale.k, &stats));
    }
    const double micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        queries.size();
    std::printf("%-12d %-10d %-16lld %-14lld %-12.1f\n", leaf_size,
                tree.node_count(),
                stats.distance_evaluations / queries.size(),
                stats.leaves_visited / queries.size(), micros);
  }
  return 0;
}
