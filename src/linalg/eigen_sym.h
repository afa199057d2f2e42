#ifndef QCLUSTER_LINALG_EIGEN_SYM_H_
#define QCLUSTER_LINALG_EIGEN_SYM_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace qcluster::linalg {

/// Eigendecomposition of a symmetric matrix: A = V diag(values) V^T.
/// Eigenvalues are sorted in descending order; eigenvectors are the
/// corresponding *columns* of `vectors` (matching the paper's Γ / G whose
/// column γ_i is the i-th principal direction).
struct SymmetricEigen {
  Vector values;
  Matrix vectors;
};

/// Computes all eigenvalues/eigenvectors of a symmetric matrix with the
/// cyclic Jacobi rotation method. Exact for the small (p <= a few dozen)
/// covariance matrices this library handles; fails with kNotConverged only
/// if the off-diagonal mass does not vanish within the sweep limit.
Result<SymmetricEigen> EigenSymmetric(const Matrix& a,
                                      int max_sweeps = 64,
                                      double tol = 1e-12);

/// A lower bound on λ_min of a symmetric matrix, clamped to >= 0 so it
/// stays a valid pruning bound for a PSD quadratic form: the smallest
/// eigenvalue when EigenSymmetric converges, else the O(d²) Gershgorin-disc
/// bound min_r (a_rr − Σ_{c≠r} |a_rc|).
double MinEigenvalueLowerBound(const Matrix& a);

}  // namespace qcluster::linalg

#endif  // QCLUSTER_LINALG_EIGEN_SYM_H_
