// Ablation (extension beyond the paper): RDA-style covariance shrinkage of
// the per-cluster metrics toward the pooled covariance,
// S_i' = (1 − λ) S_i + λ S_pooled. λ = 0 is the paper's exact metric;
// moderate λ regularizes the ellipsoids of clusters built from only a few
// marked images.

#include <cstdio>

#include "bench_util.h"
#include "core/engine.h"
#include "index/br_tree.h"

int main() {
  const qcluster::bench::BenchScale scale =
      qcluster::bench::BenchScale::FromEnv();
  const qcluster::dataset::FeatureDatabase db = qcluster::bench::BuildFeatures(
      qcluster::dataset::FeatureType::kColorMoments, scale);
  const qcluster::index::BrTree tree(&db.features());
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(db, scale.queries);

  std::printf("=== Ablation: covariance shrinkage lambda ===\n");
  std::printf("database: %d images, k = %d, %d queries, %d iterations\n\n",
              db.size(), scale.k, scale.queries, scale.iterations);
  std::printf("%-10s %-12s %-12s\n", "lambda", "recall@k", "precision@k");
  for (double lambda : {0.0, 0.1, 0.25, 0.5, 0.75}) {
    qcluster::core::QclusterOptions opt;
    opt.k = scale.k;
    opt.covariance_shrinkage = lambda;
    qcluster::core::QclusterEngine engine(&db.features(), &tree, opt);
    const qcluster::eval::SessionResult avg = qcluster::bench::RunSessions(
        engine, db, queries, scale.iterations, scale.k);
    std::printf("%-10.2f %-12.4f %-12.4f\n", lambda,
                avg.iterations.back().recall, avg.iterations.back().precision);
  }
  return 0;
}
