// Ablation (extension): robustness to an imperfect user. Real users miss
// relevant images and sometimes mark wrong ones; this sweep measures how
// fast each method's final recall degrades as the judgement noise grows.

#include <cstdio>

#include "baselines/qpm.h"
#include "bench_util.h"
#include "core/engine.h"
#include "index/br_tree.h"

int main() {
  using qcluster::bench::BenchScale;
  const BenchScale scale = BenchScale::FromEnv();
  const qcluster::dataset::FeatureSet set = qcluster::bench::BuildFeatures(
      qcluster::dataset::FeatureType::kColorMoments, scale);
  const qcluster::index::BrTree tree(&set.features);
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(set, scale.queries);

  std::printf("=== Ablation: imperfect user (miss / false-mark noise) ===\n");
  std::printf("database: %d images, k = %d, %d queries, %d iterations\n\n",
              set.size(), scale.k, scale.queries, scale.iterations);
  std::printf("%-8s %-8s %-14s %-14s\n", "miss", "false", "qcluster",
              "qpm");
  for (double miss : {0.0, 0.2, 0.4}) {
    for (double false_mark : {0.0, 0.05}) {
      qcluster::eval::OracleOptions oopt;
      oopt.miss_probability = miss;
      oopt.false_mark_probability = false_mark;
      qcluster::eval::OracleUser oracle(&set.categories, &set.themes, oopt);
      qcluster::eval::SimulationOptions sim;
      sim.iterations = scale.iterations;
      sim.k = scale.k;

      auto run = [&](qcluster::core::RetrievalMethod& method) {
        std::vector<qcluster::eval::SessionResult> sessions;
        for (int id : queries) {
          sessions.push_back(qcluster::eval::SimulateSession(
              method, set.features, oracle, set.categories, set.themes, id,
              sim));
        }
        return qcluster::eval::AverageSessions(sessions)
            .iterations.back()
            .recall;
      };

      qcluster::core::QclusterOptions qopt;
      qopt.k = scale.k;
      qcluster::core::QclusterEngine qcluster(&set.features, &tree, qopt);
      qcluster::baselines::QpmOptions popt;
      popt.k = scale.k;
      qcluster::baselines::QueryPointMovement qpm(&set.features, &tree, popt);

      std::printf("%-8.2f %-8.2f %-14.4f %-14.4f\n", miss, false_mark,
                  run(qcluster), run(qpm));
    }
  }
  return 0;
}
