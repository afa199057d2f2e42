#include "stats/covariance_scheme.h"

#include <cmath>

#include "common/check.h"
#include "core/invariants.h"
#include "linalg/decomposition.h"

namespace qcluster::stats {

const char* CovarianceSchemeName(CovarianceScheme scheme) {
  switch (scheme) {
    case CovarianceScheme::kInverse:
      return "inverse";
    case CovarianceScheme::kDiagonal:
      return "diagonal";
  }
  return "?";
}

namespace {

/// Ridge added to a singular covariance before the second SPD attempt, as a
/// fraction of its mean diagonal.
constexpr double kRegularization = 1e-6;
/// Smallest variance the diagonal scheme inverts, and the absolute part of
/// the ridge.
constexpr double kFloor = 1e-12;

/// Column-wise SPD inversion returns a numerically asymmetric matrix when
/// the input is ill-conditioned; downstream eigen analysis needs exact
/// symmetry.
linalg::Matrix Symmetrized(const linalg::Matrix& m) {
  return m.Add(m.Transposed()).Scale(0.5);
}

}  // namespace

linalg::Matrix InvertCovariance(const linalg::Matrix& s,
                                CovarianceScheme scheme) {
  QCLUSTER_CHECK(s.rows() == s.cols());
  // Eq. 7/10: classification quadratic forms need a symmetric PSD
  // covariance; a violated input here means an upstream scatter update or
  // pooling broke the algebra. NaN or ∞ features are defined input
  // (docs/CORRECTNESS.md) and reach here as non-finite entries, their
  // propagation rather than broken algebra, so only a finite input is
  // audited.
  QCLUSTER_AUDIT(core::AllFinite(s)
                     ? core::ValidateSymmetricPsd(s, "InvertCovariance input")
                     : Status::OK());
  const int p = s.rows();
  if (scheme == CovarianceScheme::kDiagonal) {
    linalg::Vector inv_diag(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      const double v = s(i, i);
      inv_diag[static_cast<std::size_t>(i)] =
          1.0 / (v > kFloor ? v : kFloor);
    }
    return linalg::Matrix::Diagonal(inv_diag);
  }

  Result<linalg::Matrix> inv = linalg::InverseSpd(s);
  if (inv.ok()) {
    linalg::Matrix sym = Symmetrized(inv.value());
    QCLUSTER_AUDIT(core::ValidateSymmetricPsd(sym, "InvertCovariance inverse"));
    return sym;
  }

  // Singular covariance: regularize the diagonal (Sec. 3.2, citing [21])
  // and retry before falling back to the diagonal scheme.
  double mean_diag = 0.0;
  for (int i = 0; i < p; ++i) mean_diag += s(i, i);
  mean_diag = p > 0 ? mean_diag / p : 0.0;
  linalg::Matrix ridged = s;
  ridged.AddToDiagonal(
      kRegularization * (mean_diag > kFloor ? mean_diag : 1.0) + kFloor);
  inv = linalg::InverseSpd(ridged);
  if (inv.ok()) return Symmetrized(inv.value());
  return InvertCovariance(s, CovarianceScheme::kDiagonal);
}

}  // namespace qcluster::stats
