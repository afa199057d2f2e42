// Quickstart: the smallest complete Qcluster session.
//
// Builds a tiny synthetic feature database whose target "category" is
// bimodal (two separated blobs — the complex-query situation of the
// paper's Example 1), runs an initial query-by-example, feeds the oracle's
// relevance judgements back for three iterations, and prints how recall
// improves as the engine discovers both modes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "index/br_tree.h"

using qcluster::Rng;
using qcluster::core::QclusterEngine;
using qcluster::core::QclusterOptions;
using qcluster::core::RelevantItem;
using qcluster::linalg::Vector;

int main() {
  // 1. A database of 2-d feature vectors: 30 relevant images near (0,0),
  //    30 near (3,3), and 140 background images.
  Rng rng(42);
  std::vector<Vector> database;
  std::vector<bool> is_relevant;
  for (int i = 0; i < 30; ++i) {
    database.push_back({0.3 * rng.Gaussian(), 0.3 * rng.Gaussian()});
    is_relevant.push_back(true);
    database.push_back(
        {3.0 + 0.3 * rng.Gaussian(), 3.0 + 0.3 * rng.Gaussian()});
    is_relevant.push_back(true);
  }
  for (int i = 0; i < 140; ++i) {
    database.push_back({rng.Uniform(-5.0, 9.0), rng.Uniform(-5.0, 9.0)});
    is_relevant.push_back(false);
  }

  // 2. Pack the rows into one block, index it, and create the engine.
  const auto block = qcluster::linalg::FlatBlock::FromPoints(database);
  const qcluster::index::BrTree tree(&block);
  QclusterOptions options;
  options.k = 80;
  QclusterEngine engine(&block, &tree, options);

  // 3. Initial query by example: the first relevant image.
  auto result = engine.InitialQuery(database[0]);

  auto recall = [&](const std::vector<qcluster::index::Neighbor>& r) {
    int hits = 0;
    for (const auto& n : r) {
      if (is_relevant[static_cast<std::size_t>(n.id)]) ++hits;
    }
    return hits / 60.0;
  };
  std::printf("iteration 0 (initial query): recall %.2f, clusters: none\n",
              recall(result));

  // 4. Relevance feedback loop: the "user" marks every relevant image in
  //    the current result; the engine classifies, merges, and re-queries
  //    with the disjunctive multipoint metric (Eq. 5).
  for (int iteration = 1; iteration <= 3; ++iteration) {
    std::vector<RelevantItem> marked;
    for (const auto& n : result) {
      if (is_relevant[static_cast<std::size_t>(n.id)]) {
        marked.push_back({n.id, 1.0});
      }
    }
    result = engine.Feedback(marked);
    std::printf("iteration %d: recall %.2f, clusters: %d (centroids:",
                iteration, recall(result),
                static_cast<int>(engine.clusters().size()));
    for (const auto& c : engine.clusters()) {
      std::printf(" (%.1f,%.1f)", c.centroid()[0], c.centroid()[1]);
    }
    std::printf(")\n");
  }
  std::printf("\nThe engine discovered both modes of the bimodal category —\n"
              "a disjunctive query no single-point method can express.\n");
  return 0;
}
