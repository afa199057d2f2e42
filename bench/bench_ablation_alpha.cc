// Ablation: the significance level α drives both the effective radius
// (Lemma 1) and the merge threshold (Eq. 16). Sweeping α shows the
// trade-off the paper discusses: small α → larger radii and easier merges
// (fewer, fatter clusters); large α → many small clusters.

#include <cstdio>

#include "bench_util.h"
#include "core/engine.h"
#include "index/br_tree.h"

namespace {

using qcluster::bench::BenchScale;

}  // namespace

int main() {
  const BenchScale scale = BenchScale::FromEnv();
  const qcluster::dataset::FeatureDatabase db = qcluster::bench::BuildFeatures(
      qcluster::dataset::FeatureType::kColorMoments, scale);
  const qcluster::index::BrTree tree(&db.features());
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(db, scale.queries);

  std::printf("=== Ablation: significance level alpha ===\n");
  std::printf("database: %d images, k = %d, %d queries, %d iterations\n\n",
              db.size(), scale.k, scale.queries, scale.iterations);
  std::printf("%-10s %-12s %-12s\n", "alpha", "recall@k", "precision@k");
  for (double alpha : {0.5, 0.2, 0.05, 0.01, 0.001}) {
    qcluster::core::QclusterOptions opt;
    opt.k = scale.k;
    opt.alpha = alpha;
    qcluster::core::QclusterEngine engine(&db.features(), &tree, opt);
    const qcluster::eval::SessionResult avg = qcluster::bench::RunSessions(
        engine, db, queries, scale.iterations, scale.k);
    std::printf("%-10.3f %-12.4f %-12.4f\n", alpha,
                avg.iterations.back().recall, avg.iterations.back().precision);
  }
  return 0;
}
