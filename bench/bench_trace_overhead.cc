// Measures the runtime cost of the tracing layer (common/trace.h): full
// oracle-driven feedback sessions with tracing disabled vs enabled, on the
// same engine and feature set. The disabled row is the number that matters
// for production defaults — a span site while tracing is off costs one
// relaxed atomic load and must be indistinguishable from the pre-tracing
// baseline. The enabled row prices actually collecting spans (ring-buffer
// pushes plus the per-round drain into the recorder).

#include <chrono>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/check.h"
#include "common/trace.h"
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

double MeasureSessionMillis(bool tracing) {
  const FeatureSet& set = Features();
  const BenchScale scale = BenchScale::FromEnv();
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(set, scale.queries);

  qcluster::core::QclusterOptions opt;
  opt.k = scale.k;
  qcluster::core::QclusterEngine engine(&set.features, &Tree(), opt);

  qcluster::trace::SetTracingEnabled(tracing);
  const auto start = std::chrono::steady_clock::now();
  const qcluster::eval::SessionResult avg = qcluster::bench::RunSessions(
      engine, set, queries, scale.iterations, scale.k);
  const auto end = std::chrono::steady_clock::now();
  qcluster::trace::SetTracingEnabled(false);
  qcluster::trace::TraceRecorder::Global().Reset();
  benchmark::DoNotOptimize(avg);
  return std::chrono::duration<double, std::milli>(end - start).count() /
         static_cast<double>(queries.size());
}

void PrintOverheadTable() {
  const BenchScale scale = BenchScale::FromEnv();
  std::printf("=== Tracing overhead (common/trace.h) ===\n");
  std::printf("database: %d images, k = %d, %d queries x %d iterations\n",
              Features().size(), scale.k, scale.queries, scale.iterations);
  const double off_ms = MeasureSessionMillis(false);
  const double on_ms = MeasureSessionMillis(true);
  std::printf("tracing off: %9.3f ms / session\n", off_ms);
  std::printf("tracing on : %9.3f ms / session  (x%.2f)\n", on_ms,
              off_ms > 0.0 ? on_ms / off_ms : 0.0);
  std::printf("spans dropped during traced sessions: %lld\n\n",
              qcluster::trace::TraceRecorder::Global().dropped());
}

void RunSessionBenchmark(benchmark::State& state, bool tracing) {
  const FeatureSet& set = Features();
  const BenchScale scale = BenchScale::FromEnv();
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(set, scale.queries);
  qcluster::core::QclusterOptions opt;
  opt.k = scale.k;
  qcluster::trace::SetTracingEnabled(tracing);
  for (auto _ : state) {
    qcluster::core::QclusterEngine engine(&set.features, &Tree(), opt);
    const qcluster::eval::SessionResult avg = qcluster::bench::RunSessions(
        engine, set, {queries[0]}, scale.iterations, scale.k);
    benchmark::DoNotOptimize(avg);
  }
  qcluster::trace::SetTracingEnabled(false);
  qcluster::trace::TraceRecorder::Global().Reset();
}

void BM_SessionTracingOff(benchmark::State& state) {
  RunSessionBenchmark(state, false);
}
void BM_SessionTracingOn(benchmark::State& state) {
  RunSessionBenchmark(state, true);
}

BENCHMARK(BM_SessionTracingOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SessionTracingOn)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintOverheadTable();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
