// Reproduces Figure 7: per-iteration execution cost of the three feedback
// approaches. The mechanism to reproduce: Qcluster's multipoint refinement
// reuses index information cached from the previous iteration (warm-started
// k-NN), so the cost of iterations 1..5 drops well below the centroid-based
// approaches (QPM / QEX / FALCON) which re-run a cold query each round.
//
// Prints per-iteration wall time and distance evaluations for each method,
// then runs google-benchmark timings of one full session per method.
//
// The table's work is deterministic at the bench's seed and scale, so it is
// also exported as gauges that bench/check_regression.py compares exactly
// with bench/baselines/BENCH_bench_fig07_execution_cost.json: per method and
// round, `bench.fig07.<method>.round<r>.evals` and `.leaves` (distance
// evaluations and leaf page reads summed over the queries), and per method
// `bench.fig07.<method>.pair_scores.evals` (cluster pairs scored by the
// initial clustering and the merge passes: Qcluster and QEX; 0 for the
// others).

#include <cstdio>
#include <string>

#include <benchmark/benchmark.h>

#include "baselines/falcon.h"
#include "baselines/qex.h"
#include "baselines/qpm.h"
#include "bench_util.h"
#include "common/metrics.h"
#include "core/engine.h"
#include "index/br_tree.h"

namespace {

using qcluster::bench::BenchScale;
using qcluster::dataset::FeatureDatabase;

const FeatureDatabase& Features() {
  static const FeatureDatabase* db = [] {
    return new FeatureDatabase(qcluster::bench::BuildFeatures(
        qcluster::dataset::FeatureType::kColorMoments,
        BenchScale::FromEnv()));
  }();
  return *db;
}

const qcluster::index::BrTree& Tree() {
  static const qcluster::index::BrTree* tree =
      new qcluster::index::BrTree(&Features().features());
  return *tree;
}

void PrintCostTable() {
  const FeatureDatabase& db = Features();
  const BenchScale scale = BenchScale::FromEnv();
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(db, scale.queries);

  qcluster::core::QclusterOptions qopt;
  qopt.k = scale.k;
  qcluster::core::QclusterEngine qcluster_cached(&db.features(), &Tree(), qopt);
  qcluster::core::QclusterOptions qopt_cold = qopt;
  qopt_cold.use_query_cache = false;
  qcluster::core::QclusterEngine qcluster_cold(&db.features(), &Tree(),
                                               qopt_cold);
  qcluster::baselines::QpmOptions popt;
  popt.k = scale.k;
  qcluster::baselines::QueryPointMovement qpm(&db.features(), &Tree(), popt);
  qcluster::baselines::QexOptions xopt;
  xopt.k = scale.k;
  qcluster::baselines::QueryExpansion qex(&db.features(), &Tree(), xopt);
  qcluster::baselines::FalconOptions fopt;
  fopt.k = scale.k;
  qcluster::baselines::Falcon falcon(&db.features(), &Tree(), fopt);

  std::printf("=== Figure 7: execution cost per iteration ===\n");
  std::printf("database: %d images, k = %d, %d queries averaged\n\n",
              db.size(), scale.k, scale.queries);
  struct Row {
    const char* name;
    const char* gauge;
    qcluster::core::RetrievalMethod* method;
  };
  Row rows[] = {
      {"qcluster (cached index)", "qcluster_cached", &qcluster_cached},
      {"qcluster (cold index)", "qcluster_cold", &qcluster_cold},
      {"qpm", "qpm", &qpm},
      {"qex", "qex", &qex},
      {"falcon", "falcon", &falcon}};
  const auto pair_scores = [] {
    const qcluster::MetricsRegistry& registry =
        qcluster::MetricsRegistry::Global();
    return registry.CounterValue("hierarchical.pair_scores") +
           registry.CounterValue("merge.pair_scores");
  };
  for (const Row& row : rows) {
    const long long pair_scores_before = pair_scores();
    const std::vector<qcluster::eval::SessionResult> sessions =
        qcluster::bench::RunSessionsPerQuery(*row.method, db, queries,
                                             scale.iterations, scale.k);
    const std::string gauge = std::string("bench.fig07.") + row.gauge;
    qcluster::MetricGauge(gauge + ".pair_scores.evals",
                          static_cast<double>(pair_scores() -
                                              pair_scores_before));
    const qcluster::eval::SessionResult avg =
        qcluster::eval::AverageSessions(sessions);
    std::vector<double> millis, evals, leaves;
    for (std::size_t r = 0; r < avg.iterations.size(); ++r) {
      const auto& it = avg.iterations[r];
      millis.push_back(it.wall_seconds * 1e3);
      evals.push_back(
          static_cast<double>(it.search_stats.distance_evaluations));
      leaves.push_back(static_cast<double>(it.search_stats.leaves_visited));
      long long total_evals = 0;
      long long total_leaves = 0;
      for (const qcluster::eval::SessionResult& session : sessions) {
        if (r >= session.iterations.size()) continue;
        total_evals += session.iterations[r].search_stats.distance_evaluations;
        total_leaves += session.iterations[r].search_stats.leaves_visited;
      }
      const std::string round = gauge + ".round" + std::to_string(r);
      qcluster::MetricGauge(round + ".evals", static_cast<double>(total_evals));
      qcluster::MetricGauge(round + ".leaves",
                            static_cast<double>(total_leaves));
    }
    std::printf("%s\n", row.name);
    qcluster::bench::PrintSeries("  wall ms (iter 0..n)", millis);
    qcluster::bench::PrintSeries("  distance evals", evals);
    // Leaf reads are the disk-IO proxy: the paper's execution cost was
    // dominated by index node accesses on disk-resident data.
    qcluster::bench::PrintSeries("  leaf page reads (IO)", leaves);
  }
  std::printf("\n");
}

template <typename MakeMethod>
void RunSessionBenchmark(benchmark::State& state, MakeMethod make) {
  const FeatureDatabase& db = Features();
  const BenchScale scale = BenchScale::FromEnv();
  auto method = make();
  const std::vector<int> queries = qcluster::bench::BenchQueryIds(db, 8);
  qcluster::eval::OracleUser oracle(&db.categories(), &db.themes(),
                                    qcluster::eval::OracleOptions{});
  std::size_t qi = 0;
  for (auto _ : state) {
    const int id = queries[qi++ % queries.size()];
    auto result =
        method->InitialQuery(db.features()[static_cast<std::size_t>(id)]);
    for (int it = 0; it < scale.iterations; ++it) {
      const auto marked =
          oracle.Judge(result, db.categories()[static_cast<std::size_t>(id)],
                       db.themes()[static_cast<std::size_t>(id)]);
      if (marked.empty()) break;
      result = method->Feedback(marked);
    }
    benchmark::DoNotOptimize(result);
  }
}

void BM_QclusterSession(benchmark::State& state) {
  RunSessionBenchmark(state, [] {
    qcluster::core::QclusterOptions opt;
    opt.k = BenchScale::FromEnv().k;
    return std::make_unique<qcluster::core::QclusterEngine>(
        &Features().features(), &Tree(), opt);
  });
}
void BM_QpmSession(benchmark::State& state) {
  RunSessionBenchmark(state, [] {
    qcluster::baselines::QpmOptions opt;
    opt.k = BenchScale::FromEnv().k;
    return std::make_unique<qcluster::baselines::QueryPointMovement>(
        &Features().features(), &Tree(), opt);
  });
}
void BM_QexSession(benchmark::State& state) {
  RunSessionBenchmark(state, [] {
    qcluster::baselines::QexOptions opt;
    opt.k = BenchScale::FromEnv().k;
    return std::make_unique<qcluster::baselines::QueryExpansion>(
        &Features().features(), &Tree(), opt);
  });
}
void BM_FalconSession(benchmark::State& state) {
  RunSessionBenchmark(state, [] {
    qcluster::baselines::FalconOptions opt;
    opt.k = BenchScale::FromEnv().k;
    return std::make_unique<qcluster::baselines::Falcon>(&Features().features(),
                                                         &Tree(), opt);
  });
}

BENCHMARK(BM_QclusterSession)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QpmSession)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QexSession)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FalconSession)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintCostTable();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
