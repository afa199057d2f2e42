// Ablation: the cluster-count cap ("a given size" in Algorithm 3).
// max_clusters = 1 degenerates Qcluster to a single-ellipsoid query
// (MindReader-like); larger caps enable genuinely disjunctive queries.
// The gap between max_clusters = 1 and >= 2 isolates the contribution of
// the multipoint representation itself.

#include <cstdio>

#include "bench_util.h"
#include "core/engine.h"
#include "index/br_tree.h"

int main() {
  const qcluster::bench::BenchScale scale =
      qcluster::bench::BenchScale::FromEnv();
  const qcluster::dataset::FeatureSet set = qcluster::bench::BuildFeatures(
      qcluster::dataset::FeatureType::kColorMoments, scale);
  const qcluster::index::BrTree tree(&set.features);
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(set, scale.queries);

  std::printf("=== Ablation: cluster-count cap (max_clusters) ===\n");
  std::printf("database: %d images, k = %d, %d queries, %d iterations\n\n",
              set.size(), scale.k, scale.queries, scale.iterations);
  std::printf("%-14s %-12s %-12s\n", "max_clusters", "recall@k",
              "precision@k");
  for (int max_clusters : {1, 2, 3, 5, 8}) {
    qcluster::core::QclusterOptions opt;
    opt.k = scale.k;
    opt.max_clusters = max_clusters;
    opt.initial_clusters = max_clusters < 3 ? max_clusters : 3;
    qcluster::core::QclusterEngine engine(&set.features, &tree, opt);
    const qcluster::eval::SessionResult avg = qcluster::bench::RunSessions(
        engine, set, queries, scale.iterations, scale.k);
    std::printf("%-14d %-12.4f %-12.4f\n", max_clusters,
                avg.iterations.back().recall, avg.iterations.back().precision);
  }
  return 0;
}
