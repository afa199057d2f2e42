#ifndef QCLUSTER_LINALG_MATRIX_H_
#define QCLUSTER_LINALG_MATRIX_H_

#include <initializer_list>
#include <string>

#include "linalg/vector.h"

namespace qcluster::linalg {

/// Dense row-major matrix of doubles with runtime dimensions.
///
/// Qcluster works with small covariance matrices (feature dimension p is
/// typically 3-16 after PCA), so a simple contiguous layout without
/// expression templates is both sufficient and the easiest to audit.
class Matrix {
 public:
  /// Constructs an empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Constructs a `rows` x `cols` matrix filled with `fill`.
  Matrix(int rows, int cols, double fill = 0.0);

  /// Constructs from nested initializer lists; all rows must have equal
  /// length. Intended for tests and examples.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Returns the `n` x `n` identity matrix.
  static Matrix Identity(int n);

  /// Returns a square matrix with `diag` on its diagonal.
  static Matrix Diagonal(const Vector& diag);

  /// Returns a matrix whose rows are the given vectors (all equal length).
  static Matrix FromRows(const std::vector<Vector>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(int r, int c) {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  /// Raw row-major storage (rows() * cols() doubles). The pointer the SIMD
  /// quadratic-form kernels walk; row r starts at data() + r * cols().
  const double* data() const { return data_.data(); }

  /// Returns row `r` as a vector copy.
  Vector Row(int r) const;

  /// Returns column `c` as a vector copy.
  Vector Col(int c) const;

  /// Overwrites row `r`. Requires `values.size() == cols()`.
  void SetRow(int r, const Vector& values);

  /// Returns the main diagonal (length min(rows, cols)).
  Vector Diag() const;

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Returns this * other. Requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// Returns this * x as a vector. Requires x.size() == cols().
  Vector MatVec(const Vector& x) const;

  /// Returns this^T * x. Requires x.size() == rows().
  Vector TransposedMatVec(const Vector& x) const;

  /// Returns this + other (same shape).
  Matrix Add(const Matrix& other) const;

  /// Returns this - other (same shape).
  Matrix Sub(const Matrix& other) const;

  /// Returns s * this.
  Matrix Scale(double s) const;

  /// Adds `value` to every diagonal entry in place (regularization).
  void AddToDiagonal(double value);

  /// Returns the sum of squares of all entries, squared Frobenius norm.
  double SquaredFrobeniusNorm() const;

  /// Returns the trace (square matrices only).
  double Trace() const;

  /// Returns true if the matrix is square and max |A - A^T| <= tol.
  bool IsSymmetric(double tol = 1e-9) const;

  /// Returns true if the matrix is square and every off-diagonal entry is
  /// exactly zero.
  bool IsDiagonal() const;

  /// Returns the sub-matrix made of the first `k` columns.
  Matrix LeadingColumns(int k) const;

  /// Multi-line human readable rendering, for logs and test failures.
  std::string ToString() const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// Returns the outer product a * b^T as an |a| x |b| matrix.
Matrix OuterProduct(const Vector& a, const Vector& b);

/// Returns x^T * m * y. Requires matching dimensions. This is the quadratic
/// form at the heart of every distance in the paper (Eq. 1, 7, 14).
double QuadraticForm(const Vector& x, const Matrix& m, const Vector& y);

/// Returns true if shapes match and all entries differ by at most `tol`.
bool AllClose(const Matrix& a, const Matrix& b, double tol);

}  // namespace qcluster::linalg

#endif  // QCLUSTER_LINALG_MATRIX_H_
