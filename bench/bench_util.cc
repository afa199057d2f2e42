#include "bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "baselines/mindreader.h"
#include "baselines/qex.h"
#include "baselines/qpm.h"
#include "common/check.h"
#include "eval/significance.h"
#include "common/logging.h"
#include "core/engine.h"
#include "dataset/image_collection.h"
#include "index/br_tree.h"

namespace qcluster::bench {

BenchScale BenchScale::FromEnv() {
  BenchScale scale;
  const char* full = std::getenv("QCLUSTER_BENCH_FULL");
  if (full != nullptr && full[0] == '1') {
    scale.categories = 300;
    scale.images_per_category = 100;
    scale.queries = 100;
    scale.full = true;
  }
  return scale;
}

dataset::FeatureDatabase BuildFeatures(dataset::FeatureType type,
                                       const BenchScale& scale) {
  QCLUSTER_LOG(kInfo) << "extracting features for " << scale.total_images()
                      << " images";
  dataset::ImageCollectionOptions opt;
  opt.num_categories = scale.categories;
  opt.images_per_category = scale.images_per_category;
  const dataset::ImageCollection collection(opt);
  return dataset::FeatureDatabase::Build(collection, type);
}

std::vector<int> BenchQueryIds(const dataset::FeatureDatabase& db, int count) {
  Rng rng(0xBEEF);
  QCLUSTER_CHECK(count <= db.size());
  return rng.SampleWithoutReplacement(db.size(), count);
}

eval::SessionResult RunSessions(core::RetrievalMethod& method,
                                const dataset::FeatureDatabase& db,
                                const std::vector<int>& query_ids,
                                int iterations, int k) {
  return eval::AverageSessions(
      RunSessionsPerQuery(method, db, query_ids, iterations, k));
}

std::vector<eval::SessionResult> RunSessionsPerQuery(
    core::RetrievalMethod& method, const dataset::FeatureDatabase& db,
    const std::vector<int>& query_ids, int iterations, int k) {
  eval::OracleUser oracle(&db.categories(), &db.themes(),
                          eval::OracleOptions{});
  eval::SimulationOptions sim;
  sim.iterations = iterations;
  sim.k = k;
  std::vector<eval::SessionResult> sessions;
  sessions.reserve(query_ids.size());
  for (int id : query_ids) {
    sessions.push_back(eval::SimulateSession(method, db.features(), oracle,
                                             db.categories(), db.themes(), id,
                                             sim));
  }
  return sessions;
}

void PrintSeries(const std::string& name, const std::vector<double>& values) {
  std::printf("%-28s", name.c_str());
  for (double v : values) std::printf(" %8.4f", v);
  std::printf("\n");
}

void RunPrCurveExperiment(dataset::FeatureType type,
                          const std::string& title) {
  const BenchScale scale = BenchScale::FromEnv();
  const dataset::FeatureDatabase db = BuildFeatures(type, scale);
  const index::BrTree tree(&db.features());
  core::QclusterOptions opt;
  opt.k = scale.k;
  core::QclusterEngine engine(&db.features(), &tree, opt);
  const std::vector<int> queries = BenchQueryIds(db, scale.queries);
  const eval::SessionResult avg =
      RunSessions(engine, db, queries, scale.iterations, scale.k);

  std::printf("=== %s ===\n", title.c_str());
  std::printf("database: %d images, k = %d, %d queries averaged\n",
              db.size(), scale.k, scale.queries);
  std::printf("one curve per retrieval round; points sampled every 5 "
              "cutoffs\n\n");
  std::printf("%-10s", "round");
  for (std::size_t cut = 4; cut < avg.iterations[0].pr_curve.size();
       cut += 5) {
    std::printf("   n=%-4d", static_cast<int>(cut + 1));
  }
  std::printf("\n");
  for (std::size_t r = 0; r < avg.iterations.size(); ++r) {
    std::printf("P iter %-3d", static_cast<int>(r));
    for (std::size_t cut = 4; cut < avg.iterations[r].pr_curve.size();
         cut += 5) {
      std::printf("   %.4f", avg.iterations[r].pr_curve[cut].precision);
    }
    std::printf("\nR iter %-3d", static_cast<int>(r));
    for (std::size_t cut = 4; cut < avg.iterations[r].pr_curve.size();
         cut += 5) {
      std::printf("   %.4f", avg.iterations[r].pr_curve[cut].recall);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void RunQualityComparison(dataset::FeatureType type, bool report_precision,
                          const std::string& title) {
  const BenchScale scale = BenchScale::FromEnv();
  const dataset::FeatureDatabase db = BuildFeatures(type, scale);
  const index::BrTree tree(&db.features());
  const std::vector<int> queries = BenchQueryIds(db, scale.queries);

  core::QclusterOptions qopt;
  qopt.k = scale.k;
  core::QclusterEngine qcluster(&db.features(), &tree, qopt);
  baselines::QpmOptions popt;
  popt.k = scale.k;
  baselines::QueryPointMovement qpm(&db.features(), &tree, popt);
  baselines::QexOptions xopt;
  xopt.k = scale.k;
  baselines::QueryExpansion qex(&db.features(), &tree, xopt);
  baselines::MindReaderOptions mopt;
  mopt.k = scale.k;
  baselines::MindReader mindreader(&db.features(), &tree, mopt);

  std::printf("=== %s ===\n", title.c_str());
  std::printf("database: %d images, k = %d, %d queries averaged, "
              "%d feedback iterations\n\n",
              db.size(), scale.k, scale.queries, scale.iterations);

  struct Row {
    const char* name;
    core::RetrievalMethod* method;
    std::vector<double> values;        ///< Per-iteration averages.
    std::vector<double> final_values;  ///< Per-query final-round values.
  };
  Row rows[] = {{"qcluster", &qcluster, {}, {}},
                {"qpm", &qpm, {}, {}},
                {"qex", &qex, {}, {}},
                {"mindreader", &mindreader, {}, {}}};
  for (Row& row : rows) {
    const std::vector<eval::SessionResult> sessions = RunSessionsPerQuery(
        *row.method, db, queries, scale.iterations, scale.k);
    const eval::SessionResult avg = eval::AverageSessions(sessions);
    for (const auto& it : avg.iterations) {
      row.values.push_back(report_precision ? it.precision : it.recall);
    }
    for (const auto& s : sessions) {
      row.final_values.push_back(report_precision
                                     ? s.iterations.back().precision
                                     : s.iterations.back().recall);
    }
    PrintSeries(row.name, row.values);
  }
  const double qc = rows[0].values.back();
  const double qp = rows[1].values.back();
  const double qx = rows[2].values.back();
  std::printf("\nfinal-round improvement of qcluster: %+.1f%% vs qpm, "
              "%+.1f%% vs qex\n",
              qp > 0 ? 100.0 * (qc - qp) / qp : 0.0,
              qx > 0 ? 100.0 * (qc - qx) / qx : 0.0);
  for (int other = 1; other <= 2; ++other) {
    Result<eval::PairedTTest> test = eval::PairedDifferenceTest(
        rows[0].final_values, rows[static_cast<std::size_t>(other)].final_values);
    if (test.ok()) {
      std::printf("paired t-test qcluster vs %s: t = %.2f, p = %.4f%s\n",
                  rows[static_cast<std::size_t>(other)].name,
                  test.value().t_statistic, test.value().p_value,
                  test.value().significant ? " (significant)" : "");
    }
  }
  for (const Row& row : rows) {
    Result<eval::BootstrapCi> ci =
        eval::BootstrapMeanCi(row.final_values, 0.05, 1000, 0xC1);
    if (ci.ok()) {
      std::printf("%-11s final mean %.4f, 95%% bootstrap CI [%.4f, %.4f]\n",
                  row.name, ci.value().mean, ci.value().lower,
                  ci.value().upper);
    }
  }
  std::printf("(paper reports ~34%%/33%% vs QPM and ~22%%/20%% vs QEX in "
              "recall/precision)\n\n");
}

}  // namespace qcluster::bench
