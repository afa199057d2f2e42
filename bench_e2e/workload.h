// The benchmark's workloads: inputs generated from the seed, the timed
// set-up that turns them into served indexes, and the traced run's
// stage-by-stage re-run of ingest.
#ifndef QCLUSTER_BENCH_E2E_WORKLOAD_H_
#define QCLUSTER_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dataset/feature_database.h"
#include "dataset/image_collection.h"
#include "dataset/synthetic_gaussian.h"
#include "index/knn.h"
#include "spans.h"

namespace qcluster::bench_e2e {

/// One workload at full or reduced (self-test) size.
struct Workload {
  /// paper: both feature spaces are extracted from this image collection.
  bool images = false;
  dataset::ImageCollectionOptions collection;
  /// wide, wide-full: `themes` draws of the descriptor generator (one per
  /// theme, see GenerateInputs) and the engine's covariance scheme.
  dataset::GaussianClustersOptions descriptors;
  int themes = 0;
  stats::CovarianceScheme scheme = stats::CovarianceScheme::kDiagonal;
};

/// Looks up "paper", "wide" or "wide-full"; false for any other name.
bool FindWorkload(const std::string& name, bool small, std::uint64_t seed,
                  Workload* out);

/// The generated inputs the program receives. The paper collection is
/// procedural (its options are the input), so this is empty there; wide*
/// hold the raw descriptors with their component and theme labels.
struct Inputs {
  std::vector<linalg::Vector> raw;
  std::vector<int> categories;
  std::vector<int> themes;
};
Inputs GenerateInputs(const Workload& workload, std::uint64_t seed);

/// One served feature space.
struct Space {
  std::unique_ptr<dataset::FeatureDatabase> db;
  std::unique_ptr<index::KnnIndex> index;
  core::QclusterOptions options;
};

/// What set-up produces: ready indexes over ingested databases.
struct Served {
  std::unique_ptr<dataset::ImageCollection> collection;  ///< paper only.
  std::vector<Space> spaces;
};

/// The timed set-up, from generated inputs to ready indexes. Takes the
/// inputs by value because FromRawFeatures consumes them. With a recorder,
/// every public call is a span under one "setup" root.
Served SetUp(const Workload& workload, Inputs inputs, SpanRecorder* spans);

/// Traced run only: re-runs ingest one public call at a time, as spans
/// under a "stage_probe" root — Render and both extractors per image, then
/// FromRawFeatures — and returns whether the re-run databases equal the
/// served ones exactly. paper renders every image. wide* have no images,
/// so they price the image layer on a fixed sample of a seeded paper-sized
/// collection, and re-run FromRawFeatures on their inputs, generated again.
bool RunStageProbe(const Workload& workload, const Served& served,
                   std::uint64_t seed, SpanRecorder* spans);

}  // namespace qcluster::bench_e2e

#endif  // QCLUSTER_BENCH_E2E_WORKLOAD_H_
