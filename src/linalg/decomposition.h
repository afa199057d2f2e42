#ifndef QCLUSTER_LINALG_DECOMPOSITION_H_
#define QCLUSTER_LINALG_DECOMPOSITION_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace qcluster::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive definite matrix:
/// A = L * L^T.
struct CholeskyFactor {
  Matrix l;

  /// Solves L L^T x = b.
  Vector Solve(const Vector& b) const;
};

/// Computes the Cholesky factorization of a symmetric positive definite
/// matrix. Fails with kSingularMatrix when the matrix is not (numerically)
/// positive definite.
Result<CholeskyFactor> Cholesky(const Matrix& a);

/// LU factorization with partial pivoting: P A = L U packed in one matrix.
struct LuFactor {
  Matrix lu;     ///< L (unit diagonal, below) and U (on/above).
  int sign = 1;  ///< Sign of the row permutation P, for the determinant.

  /// Returns det(A).
  double Determinant() const;
};

/// Computes an LU factorization of a square matrix. Fails with
/// kSingularMatrix when a pivot underflows.
Result<LuFactor> Lu(const Matrix& a);

/// Returns the inverse of a symmetric positive definite matrix via Cholesky,
/// or kSingularMatrix when the matrix is not numerically positive definite
/// (including rank-deficient PSD matrices whose pivots are rounding residue —
/// no LU fallback, which would return a garbage indefinite inverse).
Result<Matrix> InverseSpd(const Matrix& a);

/// Returns the determinant of a square matrix (0 for singular input).
double Determinant(const Matrix& a);

}  // namespace qcluster::linalg

#endif  // QCLUSTER_LINALG_DECOMPOSITION_H_
