#ifndef QCLUSTER_DATASET_SYNTHETIC_GAUSSIAN_H_
#define QCLUSTER_DATASET_SYNTHETIC_GAUSSIAN_H_

#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace qcluster::dataset {

/// Shape of synthetic clusters (Sec. 5): spherical draws z ~ N(0, I);
/// elliptical applies a fixed random linear map, y = A z, so COV(y) = AA'.
enum class ClusterShape { kSpherical, kElliptical };

/// A labeled synthetic point set.
struct LabeledPoints {
  std::vector<linalg::Vector> points;
  std::vector<int> labels;
};

/// Options for the classification-accuracy workload of Fig. 14-17.
struct GaussianClustersOptions {
  int dim = 16;               ///< Ambient dimension (paper: R^16).
  int num_clusters = 3;       ///< Paper: 3 clusters.
  int points_per_cluster = 100;
  /// Distance between consecutive cluster centers along a random direction,
  /// in units of component standard deviation (paper sweeps 0.5 .. 2.5).
  double inter_cluster_distance = 1.5;
  ClusterShape shape = ClusterShape::kSpherical;
  /// Condition scale of the elliptical map A: axis scales are drawn
  /// uniformly from [1/condition, condition].
  double condition = 3.0;
};

/// Draws the Fig. 14-17 workload: `num_clusters` Gaussian clusters whose
/// means are spaced `inter_cluster_distance` apart along a random unit
/// direction. For kElliptical every point is mapped through one shared
/// random nonsingular A (the same transform for all clusters, matching the
/// paper's linear-invariance setup).
LabeledPoints GenerateGaussianClusters(const GaussianClustersOptions& options,
                                       Rng& rng);

/// Uniform points in the axis-aligned cube [lo, hi]^dim (Example 3 uses
/// 10,000 points in [-2, 2]^3).
std::vector<linalg::Vector> GenerateUniformCube(int n, int dim, double lo,
                                                double hi, Rng& rng);

/// A random nonsingular linear map for invariance tests: orthogonal basis
/// (QR of a Gaussian matrix) times diagonal scales in [1/condition,
/// condition].
linalg::Matrix RandomNonsingularMatrix(int dim, double condition, Rng& rng);

}  // namespace qcluster::dataset

#endif  // QCLUSTER_DATASET_SYNTHETIC_GAUSSIAN_H_
