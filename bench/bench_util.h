#ifndef QCLUSTER_BENCH_BENCH_UTIL_H_
#define QCLUSTER_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/retrieval_method.h"
#include "dataset/feature_database.h"
#include "dataset/feature_io.h"
#include "eval/oracle.h"
#include "eval/simulator.h"

namespace qcluster::bench {

/// Experiment scale shared by all benchmark binaries.
///
/// The default scale keeps every binary in the seconds-to-a-minute range on
/// a single core; setting the environment variable QCLUSTER_BENCH_FULL=1
/// reproduces the paper's full setup (30,000 images in 300 categories, 100
/// random initial queries, k = 100, 5 feedback iterations).
struct BenchScale {
  int categories = 60;
  int images_per_category = 50;
  int queries = 30;
  int iterations = 5;
  int k = 100;
  bool full = false;

  static BenchScale FromEnv();

  int total_images() const { return categories * images_per_category; }
};

/// Renders the synthetic collection at the given scale and extracts its
/// features. Built on every run, so a bench always measures what the
/// current rendering, extraction and reduction compute.
dataset::FeatureSet BuildFeatures(dataset::FeatureType type,
                                  const BenchScale& scale);

/// Deterministic query sample for a feature set (ids drawn without
/// replacement with a fixed seed so every binary sees the same queries).
std::vector<int> BenchQueryIds(const dataset::FeatureSet& set, int count);

/// Runs `method` through full oracle-driven sessions for every query id and
/// returns the across-query average (element r = retrieval round r).
eval::SessionResult RunSessions(core::RetrievalMethod& method,
                                const dataset::FeatureSet& set,
                                const std::vector<int>& query_ids,
                                int iterations, int k);

/// Like RunSessions but returns every per-query session, for significance
/// testing between methods.
std::vector<eval::SessionResult> RunSessionsPerQuery(
    core::RetrievalMethod& method, const dataset::FeatureSet& set,
    const std::vector<int>& query_ids, int iterations, int k);

/// Prints a "name: v0 v1 v2 ..." row of per-iteration values.
void PrintSeries(const std::string& name, const std::vector<double>& values);

/// Figures 8-9: runs Qcluster sessions on `type` features and prints one
/// precision-recall curve per retrieval round (initial + each feedback
/// iteration), sampled every few cutoffs.
void RunPrCurveExperiment(dataset::FeatureType type, const std::string& title);

/// Figures 10-13: runs Qcluster, QPM, and QEX on `type` features and prints
/// recall (or precision) at k for every retrieval round, plus the relative
/// improvement of Qcluster at the final round.
void RunQualityComparison(dataset::FeatureType type, bool report_precision,
                          const std::string& title);

}  // namespace qcluster::bench

#endif  // QCLUSTER_BENCH_BENCH_UTIL_H_
