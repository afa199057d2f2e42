#include "dataset/synthetic_gaussian.h"

#include <cmath>

#include "common/check.h"

namespace qcluster::dataset {

using linalg::Matrix;
using linalg::Vector;

namespace {

/// A random unit vector, uniform on the sphere.
Vector RandomUnitVector(int dim, Rng& rng) {
  Vector v = rng.GaussianVector(dim);
  const double norm = linalg::Norm(v);
  QCLUSTER_CHECK(norm > 0.0);
  return linalg::Scale(v, 1.0 / norm);
}

}  // namespace

Matrix RandomNonsingularMatrix(int dim, double condition, Rng& rng) {
  QCLUSTER_CHECK(dim > 0);
  QCLUSTER_CHECK(condition >= 1.0);
  // Gram-Schmidt on a Gaussian matrix gives a Haar-ish orthogonal basis.
  Matrix q(dim, dim);
  for (int c = 0; c < dim; ++c) {
    Vector col = rng.GaussianVector(dim);
    for (int prev = 0; prev < c; ++prev) {
      const Vector prev_col = q.Col(prev);
      linalg::Axpy(-linalg::Dot(col, prev_col), prev_col, col);
    }
    const double norm = linalg::Norm(col);
    QCLUSTER_CHECK(norm > 1e-9);
    col = linalg::Scale(col, 1.0 / norm);
    for (int r = 0; r < dim; ++r) q(r, c) = col[static_cast<std::size_t>(r)];
  }
  // Scale the columns: A = Q * diag(s).
  for (int c = 0; c < dim; ++c) {
    const double s = rng.Uniform(1.0 / condition, condition);
    for (int r = 0; r < dim; ++r) q(r, c) *= s;
  }
  return q;
}

LabeledPoints GenerateGaussianClusters(const GaussianClustersOptions& options,
                                       Rng& rng) {
  QCLUSTER_CHECK(options.dim > 0);
  QCLUSTER_CHECK(options.num_clusters >= 1);
  QCLUSTER_CHECK(options.points_per_cluster >= 1);
  QCLUSTER_CHECK(options.inter_cluster_distance >= 0.0);

  // Means spaced along one random direction; cluster c sits at
  // c * delta * u.
  const Vector direction = RandomUnitVector(options.dim, rng);
  const Matrix transform =
      options.shape == ClusterShape::kElliptical
          ? RandomNonsingularMatrix(options.dim, options.condition, rng)
          : Matrix::Identity(options.dim);

  LabeledPoints out;
  out.points.reserve(static_cast<std::size_t>(options.num_clusters) *
                     static_cast<std::size_t>(options.points_per_cluster));
  for (int c = 0; c < options.num_clusters; ++c) {
    const Vector mean =
        linalg::Scale(direction, options.inter_cluster_distance * c);
    for (int i = 0; i < options.points_per_cluster; ++i) {
      Vector z = rng.GaussianVector(options.dim);
      linalg::Axpy(1.0, mean, z);
      // The same A maps every cluster: shapes become ellipsoids while the
      // configuration stays a linear image of the spherical one.
      out.points.push_back(transform.MatVec(z));
      out.labels.push_back(c);
    }
  }
  return out;
}

std::vector<Vector> GenerateUniformCube(int n, int dim, double lo, double hi,
                                        Rng& rng) {
  QCLUSTER_CHECK(n >= 0 && dim > 0 && lo <= hi);
  std::vector<Vector> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Vector v(static_cast<std::size_t>(dim));
    for (double& x : v) x = rng.Uniform(lo, hi);
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace qcluster::dataset
