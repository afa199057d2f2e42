#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qcluster::linalg {

Vector CholeskyFactor::Solve(const Vector& b) const {
  const int n = l.rows();
  QCLUSTER_CHECK(static_cast<int>(b.size()) == n);
  // Forward substitution: L y = b.
  Vector y(b);
  for (int i = 0; i < n; ++i) {
    double sum = y[static_cast<std::size_t>(i)];
    for (int j = 0; j < i; ++j) sum -= l(i, j) * y[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = sum / l(i, i);
  }
  // Back substitution: L^T x = y.
  for (int i = n - 1; i >= 0; --i) {
    double sum = y[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j) sum -= l(j, i) * y[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = sum / l(i, i);
  }
  return y;
}

Result<CholeskyFactor> Cholesky(const Matrix& a) {
  QCLUSTER_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  // An SPD matrix attains its largest element on the diagonal, so the
  // max diagonal entry scales the matrix. Pivots that fall below it by
  // more than the relative threshold are rounding residue of a
  // rank-deficient matrix; factoring through them "succeeds" numerically
  // but yields an explosive, typically indefinite inverse.
  double max_diag = 0.0;
  for (int j = 0; j < n; ++j) max_diag = std::max(max_diag, a(j, j));
  const double min_pivot = 1e-12 * max_diag;
  Matrix l(n, n, 0.0);
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (int k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= min_pivot || !std::isfinite(diag)) {
      return Status::SingularMatrix(
          "matrix is not numerically positive definite");
    }
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (int i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (int k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / ljj;
    }
  }
  return CholeskyFactor{std::move(l)};
}

double LuFactor::Determinant() const {
  double det = sign;
  for (int i = 0; i < lu.rows(); ++i) det *= lu(i, i);
  return det;
}

Result<LuFactor> Lu(const Matrix& a) {
  QCLUSTER_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  LuFactor f;
  f.lu = a;
  f.sign = 1;

  for (int col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest remaining entry in this column.
    int pivot_row = col;
    double best = std::abs(f.lu(col, col));
    for (int r = col + 1; r < n; ++r) {
      const double v = std::abs(f.lu(r, col));
      if (v > best) {
        best = v;
        pivot_row = r;
      }
    }
    if (best < 1e-300 || !std::isfinite(best)) {
      return Status::SingularMatrix("zero pivot in LU factorization");
    }
    if (pivot_row != col) {
      for (int c = 0; c < n; ++c) {
        std::swap(f.lu(col, c), f.lu(pivot_row, c));
      }
      f.sign = -f.sign;
    }
    const double pivot = f.lu(col, col);
    for (int r = col + 1; r < n; ++r) {
      const double factor = f.lu(r, col) / pivot;
      f.lu(r, col) = factor;
      for (int c = col + 1; c < n; ++c) {
        f.lu(r, c) -= factor * f.lu(col, c);
      }
    }
  }
  return f;
}

Result<Matrix> InverseSpd(const Matrix& a) {
  // No LU fallback: when Cholesky rejects the matrix as numerically
  // singular, LU with partial pivoting often still "succeeds" through the
  // same tiny pivots and returns a garbage (indefinite) inverse with an ok
  // status. Callers that can regularize (stats::InvertCovariance) must see
  // the failure instead.
  Result<CholeskyFactor> chol = Cholesky(a);
  if (!chol.ok()) return chol.status();
  const int n = a.rows();
  Matrix inv(n, n);
  Vector e(static_cast<std::size_t>(n), 0.0);
  for (int c = 0; c < n; ++c) {
    e[static_cast<std::size_t>(c)] = 1.0;
    const Vector col = chol.value().Solve(e);
    for (int r = 0; r < n; ++r) inv(r, c) = col[static_cast<std::size_t>(r)];
    e[static_cast<std::size_t>(c)] = 0.0;
  }
  return inv;
}

double Determinant(const Matrix& a) {
  Result<LuFactor> lu = Lu(a);
  if (!lu.ok()) return 0.0;
  return lu.value().Determinant();
}

}  // namespace qcluster::linalg
