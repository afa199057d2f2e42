#include "linalg/matrix.h"

#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace qcluster::linalg {

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            fill) {
  QCLUSTER_CHECK(rows >= 0 && cols >= 0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<int>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
  data_.reserve(static_cast<std::size_t>(rows_) *
                static_cast<std::size_t>(cols_));
  for (const auto& row : rows) {
    QCLUSTER_CHECK_MSG(static_cast<int>(row.size()) == cols_,
                       "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n, 0.0);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  const int n = static_cast<int>(diag.size());
  Matrix m(n, n, 0.0);
  for (int i = 0; i < n; ++i) m(i, i) = diag[static_cast<std::size_t>(i)];
  return m;
}

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  if (rows.empty()) return Matrix();
  const int cols = static_cast<int>(rows.front().size());
  Matrix m(static_cast<int>(rows.size()), cols);
  for (int r = 0; r < m.rows(); ++r) {
    m.SetRow(r, rows[static_cast<std::size_t>(r)]);
  }
  return m;
}

Vector Matrix::Row(int r) const {
  QCLUSTER_CHECK(0 <= r && r < rows_);
  Vector out(static_cast<std::size_t>(cols_));
  for (int c = 0; c < cols_; ++c) out[static_cast<std::size_t>(c)] = (*this)(r, c);
  return out;
}

Vector Matrix::Col(int c) const {
  QCLUSTER_CHECK(0 <= c && c < cols_);
  Vector out(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) out[static_cast<std::size_t>(r)] = (*this)(r, c);
  return out;
}

void Matrix::SetRow(int r, const Vector& values) {
  QCLUSTER_CHECK(0 <= r && r < rows_);
  QCLUSTER_CHECK(static_cast<int>(values.size()) == cols_);
  for (int c = 0; c < cols_; ++c) (*this)(r, c) = values[static_cast<std::size_t>(c)];
}

Vector Matrix::Diag() const {
  const int n = rows_ < cols_ ? rows_ : cols_;
  Vector out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = (*this)(i, i);
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  QCLUSTER_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    for (int k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (int c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

Vector Matrix::MatVec(const Vector& x) const {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == cols_);
  Vector out(static_cast<std::size_t>(rows_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (int c = 0; c < cols_; ++c) sum += (*this)(r, c) * x[static_cast<std::size_t>(c)];
    out[static_cast<std::size_t>(r)] = sum;
  }
  return out;
}

Vector Matrix::TransposedMatVec(const Vector& x) const {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == rows_);
  Vector out(static_cast<std::size_t>(cols_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double xr = x[static_cast<std::size_t>(r)];
    if (xr == 0.0) continue;
    for (int c = 0; c < cols_; ++c) out[static_cast<std::size_t>(c)] += (*this)(r, c) * xr;
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  QCLUSTER_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  QCLUSTER_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::Scale(double s) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

void Matrix::AddToDiagonal(double value) {
  QCLUSTER_CHECK(rows_ == cols_);
  for (int i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

double Matrix::SquaredFrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return sum;
}

double Matrix::Trace() const {
  QCLUSTER_CHECK(rows_ == cols_);
  double sum = 0.0;
  for (int i = 0; i < rows_; ++i) sum += (*this)(i, i);
  return sum;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (int r = 0; r < rows_; ++r) {
    for (int c = r + 1; c < cols_; ++c) {
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    }
  }
  return true;
}

bool Matrix::IsDiagonal() const {
  if (rows_ != cols_) return false;
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      if (r != c && (*this)(r, c) != 0.0) return false;
    }
  }
  return true;
}

Matrix Matrix::LeadingColumns(int k) const {
  QCLUSTER_CHECK(0 <= k && k <= cols_);
  Matrix out(rows_, k);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < k; ++c) out(r, c) = (*this)(r, c);
  }
  return out;
}

std::string Matrix::ToString() const {
  std::string out;
  char buf[64];
  for (int r = 0; r < rows_; ++r) {
    out += "[ ";
    for (int c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof(buf), "%11.5g ", (*this)(r, c));
      out += buf;
    }
    out += "]\n";
  }
  return out;
}

Matrix OuterProduct(const Vector& a, const Vector& b) {
  Matrix out(static_cast<int>(a.size()), static_cast<int>(b.size()));
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      out(r, c) = a[static_cast<std::size_t>(r)] * b[static_cast<std::size_t>(c)];
    }
  }
  return out;
}

double QuadraticForm(const Vector& x, const Matrix& m, const Vector& y) {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == m.rows());
  QCLUSTER_CHECK(static_cast<int>(y.size()) == m.cols());
  double sum = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    const double xr = x[static_cast<std::size_t>(r)];
    if (xr == 0.0) continue;
    double inner = 0.0;
    for (int c = 0; c < m.cols(); ++c) inner += m(r, c) * y[static_cast<std::size_t>(c)];
    sum += xr * inner;
  }
  return sum;
}

bool AllClose(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (std::abs(a(r, c) - b(r, c)) > tol) return false;
    }
  }
  return true;
}

}  // namespace qcluster::linalg
