// Measures the runtime cost of the invariant-audit layer (QCLUSTER_AUDIT):
// full oracle-driven feedback sessions with the audits disabled vs enabled,
// on the same engine and feature set. The comparison is only meaningful in
// a Debug tree — Release compiles every QCLUSTER_AUDIT call to a no-op, so
// both rows then measure identical code (the binary says so in its output).
// bench/run_all.sh runs this from a Debug build and prints the summary next
// to the Release figures.

#include <chrono>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/check.h"
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

double MeasureSessionMillis(bool audit) {
  const FeatureDatabase& db = Features();
  const BenchScale scale = BenchScale::FromEnv();
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(db, scale.queries);

  qcluster::core::QclusterOptions opt;
  opt.k = scale.k;
  qcluster::core::QclusterEngine engine(&db.features(), &Tree(), opt);

  qcluster::SetAuditEnabled(audit);
  const auto start = std::chrono::steady_clock::now();
  const qcluster::eval::SessionResult avg = qcluster::bench::RunSessions(
      engine, db, queries, scale.iterations, scale.k);
  const auto end = std::chrono::steady_clock::now();
  qcluster::SetAuditEnabled(false);
  benchmark::DoNotOptimize(avg);
  return std::chrono::duration<double, std::milli>(end - start).count() /
         static_cast<double>(queries.size());
}

void PrintOverheadTable() {
  const BenchScale scale = BenchScale::FromEnv();
  std::printf("=== Invariant-audit overhead (QCLUSTER_AUDIT) ===\n");
  std::printf("database: %d images, k = %d, %d queries x %d iterations\n",
              Features().size(), scale.k, scale.queries, scale.iterations);
#ifdef NDEBUG
  std::printf(
      "NOTE: NDEBUG build — QCLUSTER_AUDIT compiles to a no-op, so the two\n"
      "rows below measure identical code. Build Debug for the real cost.\n");
#endif
  const double off_ms = MeasureSessionMillis(false);
  const double on_ms = MeasureSessionMillis(true);
  const long long violations =
      qcluster::MetricsRegistry::Global().counter("audit.violations")->value();
  std::printf("audit off: %9.3f ms / session\n", off_ms);
  std::printf("audit on : %9.3f ms / session  (x%.2f)\n", on_ms,
              off_ms > 0.0 ? on_ms / off_ms : 0.0);
  std::printf("audit.violations after audited sessions: %lld\n\n", violations);
}

void RunSessionBenchmark(benchmark::State& state, bool audit) {
  const FeatureDatabase& db = Features();
  const BenchScale scale = BenchScale::FromEnv();
  const std::vector<int> queries =
      qcluster::bench::BenchQueryIds(db, scale.queries);
  qcluster::core::QclusterOptions opt;
  opt.k = scale.k;
  qcluster::SetAuditEnabled(audit);
  for (auto _ : state) {
    qcluster::core::QclusterEngine engine(&db.features(), &Tree(), opt);
    const qcluster::eval::SessionResult avg = qcluster::bench::RunSessions(
        engine, db, {queries[0]}, scale.iterations, scale.k);
    benchmark::DoNotOptimize(avg);
  }
  qcluster::SetAuditEnabled(false);
}

void BM_SessionAuditOff(benchmark::State& state) {
  RunSessionBenchmark(state, false);
}
void BM_SessionAuditOn(benchmark::State& state) {
  RunSessionBenchmark(state, true);
}

BENCHMARK(BM_SessionAuditOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SessionAuditOn)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintOverheadTable();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
