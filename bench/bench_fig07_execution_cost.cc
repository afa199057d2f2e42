// Reproduces Figure 7: per-iteration execution cost of the three feedback
// approaches. The mechanism to reproduce: Qcluster's multipoint refinement
// reuses index information cached from the previous iteration (warm-started
// k-NN), so the cost of iterations 1..5 drops well below the centroid-based
// approaches (QPM / QEX / FALCON) which re-run a cold query each round.
//
// Prints per-iteration wall time and distance evaluations for each method,
// then runs google-benchmark timings of one full session per method.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "baselines/falcon.h"
#include "baselines/qex.h"
#include "baselines/qpm.h"
#include "bench_util.h"
#include "core/engine.h"
#include "index/br_tree.h"

namespace {

using qcluster::bench::BenchScale;
using qcluster::dataset::FeatureSet;

const FeatureSet& Features() {
  static const FeatureSet* set = [] {
    return new FeatureSet(qcluster::bench::BuildFeatures(
        qcluster::dataset::FeatureType::kColorMoments,
        BenchScale::FromEnv()));
  }();
  return *set;
}

const qcluster::index::BrTree& Tree() {
  static const qcluster::index::BrTree* tree =
      new qcluster::index::BrTree(&Features().features);
  return *tree;
}

void PrintCostTable() {
  const FeatureSet& set = Features();
  const BenchScale scale = BenchScale::FromEnv();
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(set, scale.queries);

  qcluster::core::QclusterOptions qopt;
  qopt.k = scale.k;
  qcluster::core::QclusterEngine qcluster_cached(&set.features, &Tree(), qopt);
  qcluster::core::QclusterOptions qopt_cold = qopt;
  qopt_cold.use_query_cache = false;
  qcluster::core::QclusterEngine qcluster_cold(&set.features, &Tree(),
                                               qopt_cold);
  qcluster::baselines::QpmOptions popt;
  popt.k = scale.k;
  qcluster::baselines::QueryPointMovement qpm(&set.features, &Tree(), popt);
  qcluster::baselines::QexOptions xopt;
  xopt.k = scale.k;
  qcluster::baselines::QueryExpansion qex(&set.features, &Tree(), xopt);
  qcluster::baselines::FalconOptions fopt;
  fopt.k = scale.k;
  qcluster::baselines::Falcon falcon(&set.features, &Tree(), fopt);

  std::printf("=== Figure 7: execution cost per iteration ===\n");
  std::printf("database: %d images, k = %d, %d queries averaged\n\n",
              set.size(), scale.k, scale.queries);
  struct Row {
    const char* name;
    qcluster::core::RetrievalMethod* method;
  };
  Row rows[] = {{"qcluster (cached index)", &qcluster_cached},
                {"qcluster (cold index)", &qcluster_cold},
                {"qpm", &qpm},
                {"qex", &qex},
                {"falcon", &falcon}};
  for (const Row& row : rows) {
    const qcluster::eval::SessionResult avg = qcluster::bench::RunSessions(
        *row.method, set, queries, scale.iterations, scale.k);
    std::vector<double> millis, evals, leaves;
    for (const auto& it : avg.iterations) {
      millis.push_back(it.wall_seconds * 1e3);
      evals.push_back(static_cast<double>(it.search_stats.distance_evaluations));
      leaves.push_back(static_cast<double>(it.search_stats.leaves_visited));
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
  const FeatureSet& set = Features();
  const BenchScale scale = BenchScale::FromEnv();
  auto method = make();
  const std::vector<int> queries = qcluster::bench::BenchQueryIds(set, 8);
  qcluster::eval::OracleUser oracle(&set.categories, &set.themes,
                                    qcluster::eval::OracleOptions{});
  std::size_t qi = 0;
  for (auto _ : state) {
    const int id = queries[qi++ % queries.size()];
    auto result =
        method->InitialQuery(set.features[static_cast<std::size_t>(id)]);
    for (int it = 0; it < scale.iterations; ++it) {
      const auto marked =
          oracle.Judge(result, set.categories[static_cast<std::size_t>(id)],
                       set.themes[static_cast<std::size_t>(id)]);
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
        &Features().features, &Tree(), opt);
  });
}
void BM_QpmSession(benchmark::State& state) {
  RunSessionBenchmark(state, [] {
    qcluster::baselines::QpmOptions opt;
    opt.k = BenchScale::FromEnv().k;
    return std::make_unique<qcluster::baselines::QueryPointMovement>(
        &Features().features, &Tree(), opt);
  });
}
void BM_QexSession(benchmark::State& state) {
  RunSessionBenchmark(state, [] {
    qcluster::baselines::QexOptions opt;
    opt.k = BenchScale::FromEnv().k;
    return std::make_unique<qcluster::baselines::QueryExpansion>(
        &Features().features, &Tree(), opt);
  });
}
void BM_FalconSession(benchmark::State& state) {
  RunSessionBenchmark(state, [] {
    qcluster::baselines::FalconOptions opt;
    opt.k = BenchScale::FromEnv().k;
    return std::make_unique<qcluster::baselines::Falcon>(&Features().features,
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
