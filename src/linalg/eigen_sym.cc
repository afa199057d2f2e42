#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace qcluster::linalg {

Result<SymmetricEigen> EigenSymmetric(const Matrix& a, int max_sweeps,
                                      double tol) {
  QCLUSTER_CHECK(a.rows() == a.cols());
  // Symmetry tolerance is relative to the matrix scale: inverse covariance
  // matrices can carry entries of 1e4 and beyond, where an absolute 1e-8
  // would reject benign rounding noise.
  double max_abs = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      max_abs = std::max(max_abs, std::abs(a(r, c)));
    }
  }
  QCLUSTER_CHECK_MSG(a.IsSymmetric(1e-8 * (1.0 + max_abs)),
                     "EigenSymmetric needs symmetry");
  const int n = a.rows();
  Matrix d = a;                   // Working copy, driven to diagonal form.
  Matrix v = Matrix::Identity(n); // Accumulated rotations.

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Total off-diagonal magnitude decides convergence.
    double off = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) off += std::abs(d(p, q));
    }
    if (off <= tol) {
      SymmetricEigen out;
      out.values.resize(static_cast<std::size_t>(n));
      std::vector<int> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&d](int i, int j) { return d(i, i) > d(j, j); });
      out.vectors = Matrix(n, n);
      for (int c = 0; c < n; ++c) {
        const int src = order[static_cast<std::size_t>(c)];
        out.values[static_cast<std::size_t>(c)] = d(src, src);
        for (int r = 0; r < n; ++r) out.vectors(r, c) = v(r, src);
      }
      return out;
    }

    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::abs(apq) < 1e-300) continue;
        // Classic Jacobi rotation zeroing d(p, q).
        const double theta = (d(q, q) - d(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const double tau = s / (1.0 + c);

        const double dpp = d(p, p);
        const double dqq = d(q, q);
        d(p, p) = dpp - t * apq;
        d(q, q) = dqq + t * apq;
        d(p, q) = 0.0;
        d(q, p) = 0.0;
        for (int i = 0; i < n; ++i) {
          if (i != p && i != q) {
            const double dip = d(i, p);
            const double diq = d(i, q);
            d(i, p) = dip - s * (diq + tau * dip);
            d(p, i) = d(i, p);
            d(i, q) = diq + s * (dip - tau * diq);
            d(q, i) = d(i, q);
          }
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = vip - s * (viq + tau * vip);
          v(i, q) = viq + s * (vip - tau * viq);
        }
      }
    }
  }
  return Status::NotConverged("Jacobi eigensolver exceeded sweep limit");
}

double MinEigenvalueLowerBound(const Matrix& a) {
  Result<SymmetricEigen> eigen = EigenSymmetric(a);
  if (eigen.ok() && !eigen.value().values.empty()) {
    return std::max(eigen.value().values.back(), 0.0);
  }
  double bound = std::numeric_limits<double>::infinity();
  for (int r = 0; r < a.rows(); ++r) {
    double radius = 0.0;
    for (int c = 0; c < a.cols(); ++c) {
      if (c != r) radius += std::abs(a(r, c));
    }
    bound = std::min(bound, a(r, r) - radius);
  }
  return std::max(bound, 0.0);
}

}  // namespace qcluster::linalg
