#include "core/invariants.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/vector.h"

namespace qcluster::core {

namespace {

/// Frobenius norm of the entry-wise difference of two equal-shape matrices.
double MaxAbsDiff(const linalg::Matrix& x, const linalg::Matrix& y) {
  double max_diff = 0.0;
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) {
      max_diff = std::max(max_diff, std::abs(x(r, c) - y(r, c)));
    }
  }
  return max_diff;
}

double MaxAbs(const linalg::Matrix& x) {
  double max_abs = 0.0;
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) {
      max_abs = std::max(max_abs, std::abs(x(r, c)));
    }
  }
  return max_abs;
}

}  // namespace

Status ValidateMergeClosure(const stats::WeightedStats& a,
                            const stats::WeightedStats& b,
                            const stats::WeightedStats& merged) {
  if (a.n() == 0 || b.n() == 0) return Status::OK();  // Trivial merges copy.
  if (a.dim() != b.dim() || a.dim() != merged.dim()) {
    return Status::FailedPrecondition(
        "merge closure: dimension mismatch violates Eq. 11-13");
  }
  // Eq. 11: m = m_i + m_j (and point counts add).
  const double expected_weight = a.weight() + b.weight();
  if (merged.n() != a.n() + b.n() ||
      std::abs(merged.weight() - expected_weight) >
          kAuditClosureTol * std::max(expected_weight, 1.0)) {
    return Status::FailedPrecondition(
        "merge closure: combined weight " + std::to_string(merged.weight()) +
        " != " + std::to_string(expected_weight) + " violates Eq. 11");
  }
  // Eq. 12: x̄ = (m_i x̄_i + m_j x̄_j) / m.
  const linalg::Vector expected_mean = linalg::Scale(
      linalg::Add(linalg::Scale(a.mean(), a.weight()),
                  linalg::Scale(b.mean(), b.weight())),
      1.0 / expected_weight);
  const double mean_scale =
      std::max({linalg::Norm(expected_mean), linalg::Norm(merged.mean()),
                1.0});
  if (linalg::Norm(linalg::Sub(merged.mean(), expected_mean)) >
      kAuditClosureTol * mean_scale) {
    return Status::FailedPrecondition(
        "merge closure: merged mean drifts from the Eq. 12 weighted "
        "combination");
  }
  // Eq. 13 (scatter identity): S = S_i + S_j + (m_i m_j / m) δδ'.
  const linalg::Vector diff = linalg::Sub(a.mean(), b.mean());
  const double cross = a.weight() * b.weight() / expected_weight;
  const linalg::Matrix expected_scatter =
      a.scatter().Add(b.scatter()).Add(
          linalg::OuterProduct(diff, diff).Scale(cross));
  const double scatter_scale =
      std::max({MaxAbs(expected_scatter), MaxAbs(merged.scatter()), 1.0});
  if (MaxAbsDiff(merged.scatter(), expected_scatter) >
      kAuditClosureTol * scatter_scale) {
    return Status::FailedPrecondition(
        "merge closure: merged scatter drifts from the Eq. 13 identity");
  }
  return Status::OK();
}

Status ValidateDisjunctiveAggregate(const double* d2, const double* weights,
                                    std::size_t n, double total_weight,
                                    double result) {
  if (n == 0) {
    return Status::FailedPrecondition(
        "disjunctive aggregate over zero clusters violates Eq. 5");
  }
  if (!(total_weight > 0.0)) {
    return Status::FailedPrecondition(
        "disjunctive aggregate: total weight " +
        std::to_string(total_weight) + " <= 0 violates Eq. 5");
  }
  double min_d2 = std::numeric_limits<double>::infinity();
  double max_d2 = -std::numeric_limits<double>::infinity();
  bool any_zero = false;
  bool any_nan = false;
  bool all_finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(weights[i] > 0.0)) {
      return Status::FailedPrecondition(
          "disjunctive aggregate: cluster weight " +
          std::to_string(weights[i]) + " <= 0 violates Eq. 5");
    }
    if (d2[i] < 0.0) {
      return Status::FailedPrecondition(
          "disjunctive aggregate: per-cluster d² " + std::to_string(d2[i]) +
          " negative violates Eq. 4/5 non-negativity");
    }
    if (std::isnan(d2[i])) {
      any_nan = true;
      continue;
    }
    min_d2 = std::min(min_d2, d2[i]);
    max_d2 = std::max(max_d2, d2[i]);
    any_zero = any_zero || d2[i] == 0.0;
    all_finite = all_finite && std::isfinite(d2[i]);
  }
  if (any_zero) {
    if (result != 0.0) {
      return Status::FailedPrecondition(
          "disjunctive aggregate: zero per-cluster distance must yield a "
          "zero fuzzy-OR aggregate (Eq. 5), got " + std::to_string(result));
    }
    return Status::OK();
  }
  // NaN input (a NaN feature row) is defined behavior: the aggregate
  // propagates it and NeighborOrder sorts it after every number.
  if (any_nan) {
    if (!std::isnan(result)) {
      return Status::FailedPrecondition(
          "disjunctive aggregate: NaN per-cluster distance must yield a NaN "
          "aggregate (Eq. 5), got " + std::to_string(result));
    }
    return Status::OK();
  }
  if (std::isnan(result) || result < 0.0) {
    return Status::FailedPrecondition(
        "disjunctive aggregate: result " + std::to_string(result) +
        " negative or NaN violates Eq. 5 non-negativity");
  }
  // Weighted harmonic-style mean: min d²ᵢ <= result <= max d²ᵢ. Skipped
  // when some input is infinite (a pruned-away cluster bound) — the mean is
  // then only constrained from below.
  if (all_finite && std::isfinite(result)) {
    const double lo = min_d2 * (1.0 - 1e-9) - 1e-300;
    const double hi = max_d2 * (1.0 + 1e-9) + 1e-300;
    if (result < lo || result > hi) {
      return Status::FailedPrecondition(
          "disjunctive aggregate: result " + std::to_string(result) +
          " outside the [min, max] harmonic-mean bounds of Eq. 5");
    }
  } else if (std::isfinite(result) && result < min_d2 * (1.0 - 1e-9)) {
    return Status::FailedPrecondition(
        "disjunctive aggregate: result " + std::to_string(result) +
        " below the min-d² lower bound of Eq. 5");
  }
  return Status::OK();
}

}  // namespace qcluster::core
