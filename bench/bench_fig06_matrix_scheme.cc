// Reproduces Figure 6: CPU time of the Qcluster feedback loop with the
// inverse-matrix scheme vs the diagonal-matrix scheme, color-moment
// features. The paper's observation to reproduce: the diagonal scheme
// costs significantly less CPU per iteration, which is why Qcluster adopts
// it. One google-benchmark entry per (scheme, iteration count).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/engine.h"
#include "index/br_tree.h"

namespace {

using qcluster::bench::BenchScale;
using qcluster::core::QclusterEngine;
using qcluster::core::QclusterOptions;
using qcluster::dataset::FeatureSet;
using qcluster::stats::CovarianceScheme;

const FeatureSet& Features() {
  static const FeatureSet* set = [] {
    return new FeatureSet(qcluster::bench::BuildFeatures(
        qcluster::dataset::FeatureType::kColorMoments,
        BenchScale::FromEnv()));
  }();
  return *set;
}

void BM_FeedbackLoop(benchmark::State& state, CovarianceScheme scheme) {
  const FeatureSet& set = Features();
  const qcluster::index::BrTree tree(&set.features);
  const int iterations = static_cast<int>(state.range(0));
  const BenchScale scale = BenchScale::FromEnv();

  QclusterOptions opt;
  opt.k = scale.k;
  opt.scheme = scheme;
  QclusterEngine engine(&set.features, &tree, opt);
  const std::vector<int> queries = qcluster::bench::BenchQueryIds(set, 10);

  qcluster::eval::OracleUser oracle(&set.categories, &set.themes,
                                    qcluster::eval::OracleOptions{});
  std::size_t query_index = 0;
  for (auto _ : state) {
    const int id = queries[query_index++ % queries.size()];
    auto result =
        engine.InitialQuery(set.features[static_cast<std::size_t>(id)]);
    for (int it = 0; it < iterations; ++it) {
      const auto marked =
          oracle.Judge(result, set.categories[static_cast<std::size_t>(id)],
                       set.themes[static_cast<std::size_t>(id)]);
      if (marked.empty()) break;
      result = engine.Feedback(marked);
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(qcluster::stats::CovarianceSchemeName(scheme));
}

void BM_InverseScheme(benchmark::State& state) {
  BM_FeedbackLoop(state, CovarianceScheme::kInverse);
}
void BM_DiagonalScheme(benchmark::State& state) {
  BM_FeedbackLoop(state, CovarianceScheme::kDiagonal);
}

BENCHMARK(BM_InverseScheme)->DenseRange(1, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DiagonalScheme)->DenseRange(1, 5)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
