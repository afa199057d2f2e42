#ifndef QCLUSTER_STATS_COVARIANCE_SCHEME_H_
#define QCLUSTER_STATS_COVARIANCE_SCHEME_H_

#include "linalg/matrix.h"

namespace qcluster::stats {

/// How S^{-1} is estimated in the quadratic-form measures (Sec. 3.2, 4.4.4).
///
/// The paper evaluates both schemes: the full inverse (MindReader-style)
/// against the diagonal approximation (MARS-style), and adopts the diagonal
/// scheme because it avoids the singularity problem and costs far less CPU
/// (Fig. 6) at nearly identical quality (Tables 2-3).
enum class CovarianceScheme {
  kInverse,   ///< Full matrix inverse with ridge regularization as needed.
  kDiagonal,  ///< Inverse of diag(S) only; never singular after flooring.
};

/// Returns a printable name ("inverse" / "diagonal").
const char* CovarianceSchemeName(CovarianceScheme scheme);

/// Computes S^{-1} under `scheme`.
///
/// kDiagonal: returns diag(1 / max(S_ii, 1e-12)).
/// kInverse: attempts an SPD inverse; when the matrix is numerically
/// singular (fewer samples than dimensions — the singularity issue the paper
/// discusses), a ridge of 1e-6 · mean(diag) is added first, and the
/// diagonal scheme is the final fallback. The result is always usable.
linalg::Matrix InvertCovariance(const linalg::Matrix& s,
                                CovarianceScheme scheme);

}  // namespace qcluster::stats

#endif  // QCLUSTER_STATS_COVARIANCE_SCHEME_H_
