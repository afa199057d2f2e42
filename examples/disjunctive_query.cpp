// Reproduction of the paper's Example 3 (Figure 5) as a runnable demo:
// the aggregate disjunctive distance (Eq. 5) retrieves the union of two
// separated balls in one k-NN query — something no single-point metric can
// express. Prints a coarse ASCII scatter of the retrieved set projected on
// the x-y plane.
//
//   ./build/examples/disjunctive_query

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/disjunctive_distance.h"
#include "dataset/synthetic_gaussian.h"
#include "index/linear_scan.h"

using qcluster::core::Cluster;
using qcluster::core::DisjunctiveDistance;
using qcluster::linalg::Vector;

int main() {
  qcluster::Rng rng(5);
  const std::vector<Vector> points =
      qcluster::dataset::GenerateUniformCube(10000, 3, -2.0, 2.0, rng);

  // Two query points with unit ellipsoids, m_i = 1 (the Example 3 setup).
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::FromPoint({-1, -1, -1}, 1.0));
  clusters.push_back(Cluster::FromPoint({1, 1, 1}, 1.0));
  const DisjunctiveDistance dist(
      clusters, qcluster::stats::CovarianceScheme::kDiagonal, 1.0);

  const auto block = qcluster::linalg::FlatBlock::FromPoints(points);
  const qcluster::index::LinearScanIndex index(block.view());
  const auto result = index.Search(dist, 820);  // The paper retrieves 820.

  // ASCII scatter: project the retrieved points on (x, y).
  constexpr int kGrid = 33;
  char grid[kGrid][kGrid];
  for (auto& row : grid) {
    for (char& cell : row) cell = '.';
  }
  for (const auto& n : result) {
    const Vector& p = points[static_cast<std::size_t>(n.id)];
    const int gx = static_cast<int>((p[0] + 2.0) / 4.0 * (kGrid - 1));
    const int gy = static_cast<int>((p[1] + 2.0) / 4.0 * (kGrid - 1));
    grid[gy][gx] = '#';
  }

  std::printf("top-820 under the disjunctive aggregate distance, projected "
              "on x-y\n(compare Figure 5: two separated balls around "
              "(-1,-1,-1) and (1,1,1)):\n\n");
  for (int y = kGrid - 1; y >= 0; --y) {
    for (int x = 0; x < kGrid; ++x) std::printf("%c", grid[y][x]);
    std::printf("\n");
  }

  int ball1 = 0, ball2 = 0;
  for (const auto& n : result) {
    const Vector& p = points[static_cast<std::size_t>(n.id)];
    if (qcluster::linalg::Distance(p, {-1, -1, -1}) <= 1.2) ++ball1;
    if (qcluster::linalg::Distance(p, {1, 1, 1}) <= 1.2) ++ball2;
  }
  std::printf("\nretrieved %d points: %d near (-1,-1,-1), %d near (1,1,1)\n",
              static_cast<int>(result.size()), ball1, ball2);
  return 0;
}
