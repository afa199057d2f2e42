#ifndef QCLUSTER_CORE_INVARIANTS_H_
#define QCLUSTER_CORE_INVARIANTS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/knn.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "stats/weighted_stats.h"

/// Runtime validators for the algebraic invariants the paper states and the
/// engine's correctness rests on. Each returns Status::OK when the invariant
/// holds (within a numerical tolerance) and a FailedPrecondition naming the
/// violated equation otherwise. They are wired into the hot paths behind
/// QCLUSTER_AUDIT (see common/check.h): never evaluated in Release builds,
/// and only evaluated in Debug when auditing is switched on — several cost
/// O(d³), far more than the operation they certify.
///
/// Validators callable from the stats/ and index/ layers are defined inline
/// here (those libraries sit below qcluster_core in the link order);
/// validators used only by core/ translation units live in invariants.cc.
namespace qcluster::core {

/// Relative tolerances for the audits. The validators certify algebra that
/// holds exactly in real arithmetic; the slack only absorbs floating-point
/// accumulation (a few hundred ulps on the d- and n-term reductions), so
/// genuine sign or closure errors exceed it by many orders of magnitude.
inline constexpr double kAuditSymmetryTol = 1e-9;
inline constexpr double kAuditPsdTol = 1e-7;
inline constexpr double kAuditClosureTol = 1e-8;

/// True when no entry of `m` is NaN or ±∞.
inline bool AllFinite(const linalg::Matrix& m) {
  const double* cells = m.data();
  return std::all_of(cells,
                     cells + static_cast<std::size_t>(m.rows()) *
                                 static_cast<std::size_t>(m.cols()),
                     [](double v) { return std::isfinite(v); });
}

/// Eq. 7 / Eq. 10: every covariance (and pooled covariance, Eq. 15) entering
/// classification — and its inverse — must be symmetric and positive
/// semi-definite, or the quadratic forms d²(x, c) lose their distance
/// semantics. Symmetry is checked entry-wise relative to the largest
/// magnitude; PSD via the spectrum (λ_min >= −kAuditPsdTol · scale). A
/// diverging eigensolver certifies nothing and is not reported as a
/// violation. `what` names the matrix in the report.
inline Status ValidateSymmetricPsd(const linalg::Matrix& m, const char* what) {
  if (m.rows() != m.cols()) {
    return Status::FailedPrecondition(
        std::string(what) + ": non-square matrix violates Eq. 7/10");
  }
  if (!AllFinite(m)) {
    return Status::FailedPrecondition(
        std::string(what) + ": non-finite entries violate Eq. 7/10");
  }
  double max_abs = 0.0;
  double max_asym = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      max_abs = std::max(max_abs, std::abs(m(r, c)));
      if (c > r) max_asym = std::max(max_asym, std::abs(m(r, c) - m(c, r)));
    }
  }
  if (max_asym > kAuditSymmetryTol * std::max(max_abs, 1e-300)) {
    return Status::FailedPrecondition(
        std::string(what) + ": asymmetry " + std::to_string(max_asym) +
        " violates Eq. 7/10 symmetry");
  }
  const Result<linalg::SymmetricEigen> eigen = linalg::EigenSymmetric(m);
  if (!eigen.ok() || eigen.value().values.empty()) return Status::OK();
  const double lambda_max = eigen.value().values.front();
  const double lambda_min = eigen.value().values.back();
  const double scale = std::max({std::abs(lambda_max), std::abs(lambda_min),
                                 1e-300});
  if (lambda_min < -kAuditPsdTol * scale) {
    return Status::FailedPrecondition(
        std::string(what) + ": lambda_min " + std::to_string(lambda_min) +
        " < 0 violates Eq. 7/10 positive semi-definiteness");
  }
  return Status::OK();
}

/// Eq. 14: T² = (m_i·m_j)/(m_i+m_j) · (c_i−c_j)' S⁻¹ (c_i−c_j) is a scaled
/// quadratic form under a PSD pooled inverse, so it must be non-negative,
/// and the weight total must be positive for the scaling to be defined
/// (Eq. 16 dof). +∞ is that form overflowing. NaN or ∞ features are defined
/// input, so a NaN T² is accepted when the mean difference `diff` or
/// `pooled_inverse` holds a NaN or ∞; from finite inputs it is a violation.
inline Status ValidateHotellingT2(double t2, double m_total,
                                  const linalg::Vector& diff,
                                  const linalg::Matrix& pooled_inverse) {
  if (!(m_total > 0.0)) {
    return Status::FailedPrecondition(
        "Hotelling total weight " + std::to_string(m_total) +
        " <= 0 violates Eq. 14/16");
  }
  if (std::isnan(t2)) {
    const auto finite = [](double v) { return std::isfinite(v); };
    if (std::all_of(diff.begin(), diff.end(), finite) &&
        AllFinite(pooled_inverse)) {
      return Status::FailedPrecondition(
          "Hotelling T² is NaN from finite inputs, violating Eq. 14");
    }
    return Status::OK();
  }
  if (t2 < -kAuditPsdTol * std::max(1.0, m_total)) {
    return Status::FailedPrecondition("Hotelling T² " + std::to_string(t2) +
                                      " negative violates Eq. 14");
  }
  return Status::OK();
}

/// Sharded top-k contract: every merged result list is strictly ascending
/// under the index::NeighborOrder the indexes promise — equal distances
/// break ties by id, NaN sorts last, and no id appears twice. A violation
/// means a shard heap or the merge lost the deterministic tie-break.
inline Status ValidateSortedNeighbors(const std::vector<index::Neighbor>& v,
                                      const char* what) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (!index::NeighborOrder{}(v[i - 1], v[i])) {
      return Status::FailedPrecondition(
          std::string(what) + ": neighbors out of (distance, id) order at " +
          std::to_string(i) + " — top-k heap/merge tie-break violated");
    }
  }
  return Status::OK();
}

/// Eq. 11–13 closure: the merged summary must carry exactly the combined
/// weight (Eq. 11), the weight-proportional mean (Eq. 12), and the scatter
/// identity S = S_i + S_j + (m_i m_j / m) (x̄_i − x̄_j)(x̄_i − x̄_j)'
/// (Eq. 13) — recomputed here independently of WeightedStats::Merged.
Status ValidateMergeClosure(const stats::WeightedStats& a,
                            const stats::WeightedStats& b,
                            const stats::WeightedStats& merged);

/// Eq. 5: the disjunctive aggregate is a weighted harmonic-style mean of
/// non-negative per-cluster distances, so it must be non-negative, zero iff
/// some per-cluster distance is zero, and bounded by the extreme d²ᵢ —
/// monotone non-negative aggregation. A NaN d²ᵢ (from a NaN feature row)
/// is accepted and must make the result NaN unless some d²ᵢ is zero, which
/// still yields 0; a negative d²ᵢ, or a NaN result from NaN-free inputs,
/// is a violation.
Status ValidateDisjunctiveAggregate(const double* d2, const double* weights,
                                    std::size_t n, double total_weight,
                                    double result);

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_INVARIANTS_H_
