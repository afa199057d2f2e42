#include "core/disjunctive_distance.h"

#include <limits>

#include "common/check.h"
#include "core/invariants.h"
#include "linalg/eigen_sym.h"

namespace qcluster::core {

using linalg::Vector;

DisjunctiveDistance::DisjunctiveDistance(const std::vector<Cluster>& clusters,
                                         stats::CovarianceScheme scheme,
                                         double min_variance)
    : DisjunctiveDistance(clusters, scheme, min_variance, 0.0) {}

DisjunctiveDistance::DisjunctiveDistance(const std::vector<Cluster>& clusters,
                                         stats::CovarianceScheme scheme,
                                         double min_variance, double shrinkage)
    : dim_(0), total_weight_(0.0) {
  QCLUSTER_CHECK_MSG(!clusters.empty(), "need at least one cluster");
  QCLUSTER_CHECK(0.0 <= shrinkage && shrinkage < 1.0);
  dim_ = clusters.front().dim();

  // Pooled covariance for the shrinkage target (Eq. 7 across clusters).
  linalg::Matrix pooled(dim_, dim_, 0.0);
  if (shrinkage > 0.0) {
    std::vector<const stats::WeightedStats*> groups;
    groups.reserve(clusters.size());
    for (const Cluster& c : clusters) groups.push_back(&c.stats());
    pooled = stats::PooledCovariance(groups);
  }

  for (const Cluster& c : clusters) {
    QCLUSTER_CHECK(c.dim() == dim_);
    QCLUSTER_CHECK(c.weight() > 0.0);
    centroids_.push_back(c.centroid());
    weights_.push_back(c.weight());
    if (shrinkage > 0.0) {
      linalg::Matrix blended = c.Covariance().Scale(1.0 - shrinkage)
                                   .Add(pooled.Scale(shrinkage));
      for (int d = 0; d < dim_; ++d) {
        if (blended(d, d) < min_variance) blended(d, d) = min_variance;
      }
      inverse_covs_.push_back(stats::InvertCovariance(blended, scheme));
    } else {
      inverse_covs_.push_back(c.InverseCovariance(scheme, min_variance));
    }
    total_weight_ += c.weight();

    // Tight rectangle bounds: exact per-dimension weights for diagonal
    // metrics (the adopted scheme), spectral fallback otherwise. Diagonal
    // metrics never pay the O(d³) eigendecomposition.
    const linalg::Matrix& inv = inverse_covs_.back();
    if (inv.IsDiagonal()) {
      diagonal_weights_.push_back(inv.Diag());
      min_eigenvalues_.push_back(0.0);
      continue;
    }
    diagonal_weights_.emplace_back();
    min_eigenvalues_.push_back(linalg::MinEigenvalueLowerBound(inv));
  }
}

double DisjunctiveDistance::ClusterDistance(std::size_t i,
                                            const double* x) const {
  const auto& kernels = linalg::simd::Kernels();
  const Vector& centroid = centroids_[i];
  const Vector& diag = diagonal_weights_[i];
  if (!diag.empty()) {
    // Diagonal metric fast path: O(d), no scratch at all.
    return kernels.weighted_sq_row(diag.data(), centroid.data(), x, dim_);
  }
  // Full metric: reuse a per-thread diff buffer instead of allocating one
  // per point; the quadratic-form kernel itself is allocation-free.
  static thread_local Vector diff;
  diff.resize(static_cast<std::size_t>(dim_));
  for (int d = 0; d < dim_; ++d) {
    const std::size_t sd = static_cast<std::size_t>(d);
    diff[sd] = x[sd] - centroid[sd];
  }
  return kernels.quadratic_form_row(inverse_covs_[i].data(), diff.data(),
                                    dim_);
}

linalg::simd::HarmonicSpec DisjunctiveDistance::BuildHarmonicSpec() const {
  static thread_local std::vector<linalg::simd::QuadComponentView> views;
  views.resize(centroids_.size());
  for (std::size_t i = 0; i < centroids_.size(); ++i) {
    linalg::simd::QuadComponentView& v = views[i];
    v.query = centroids_[i].data();
    v.diagonal =
        diagonal_weights_[i].empty() ? nullptr : diagonal_weights_[i].data();
    v.full = diagonal_weights_[i].empty() ? inverse_covs_[i].data() : nullptr;
    v.weight = weights_[i];
  }
  return linalg::simd::HarmonicSpec{views.data(), views.size(), total_weight_};
}

double DisjunctiveDistance::DistanceRow(const double* x) const {
#ifndef NDEBUG
  if (AuditEnabled()) {
    // Audited path: materialize the per-cluster distances so the Eq. 5
    // aggregation can be validated; routes through Aggregate, which carries
    // the audit. Results are identical — the same ClusterDistance values
    // feed the same accumulation order.
    static thread_local std::vector<double> audit_d2;
    audit_d2.resize(centroids_.size());
    for (std::size_t i = 0; i < centroids_.size(); ++i) {
      audit_d2[i] = ClusterDistance(i, x);
    }
    return Aggregate(audit_d2.data(), audit_d2.size());
  }
#endif
  // Eq. 5 fused in the kernel — no per-point d2 buffer, component loop and
  // per-cluster forms in one call.
  static thread_local std::vector<double> scratch;
  scratch.resize(static_cast<std::size_t>(dim_));
  return linalg::simd::Kernels().harmonic_row(BuildHarmonicSpec(), x, dim_,
                                              scratch.data());
}

void DisjunctiveDistance::DistanceBatch(const linalg::FlatView& view,
                                        double* out) const {
  QCLUSTER_CHECK(view.dim == dim_);
#ifndef NDEBUG
  if (AuditEnabled()) {
    for (std::size_t i = 0; i < view.n; ++i) out[i] = DistanceRow(view.row(i));
    return;
  }
#endif
  static thread_local std::vector<double> scratch;
  scratch.resize(static_cast<std::size_t>(dim_));
  linalg::simd::Kernels().harmonic_batch(BuildHarmonicSpec(), view.data,
                                         view.n, view.dim, scratch.data(),
                                         out);
}

double DisjunctiveDistance::MinDistance(const index::Rect& rect) const {
  static thread_local std::vector<double> d2;
  d2.resize(centroids_.size());
  for (std::size_t i = 0; i < centroids_.size(); ++i) {
    if (!diagonal_weights_[i].empty()) {
      // Exact lower bound for a diagonal quadratic form: per-dimension
      // clamped distance, weighted.
      d2[i] = linalg::simd::Kernels().weighted_rect_row(
          diagonal_weights_[i].data(), centroids_[i].data(), rect.lo.data(),
          rect.hi.data(), dim_);
    } else {
      d2[i] =
          min_eigenvalues_[i] * rect.SquaredEuclideanDistance(centroids_[i]);
    }
  }
  return Aggregate(d2.data(), d2.size());
}

bool DisjunctiveDistance::Decompose(index::QuadraticDecomposition* out) const {
  out->components.clear();
  out->harmonic = true;
  out->total_weight = total_weight_;
  out->components.reserve(centroids_.size());
  for (std::size_t i = 0; i < centroids_.size(); ++i) {
    index::QuadraticComponent& c = out->components.emplace_back();
    c.query = centroids_[i];
    if (!diagonal_weights_[i].empty()) {
      c.diagonal = diagonal_weights_[i];
    } else {
      c.full = inverse_covs_[i];
    }
    c.weight = weights_[i];
  }
  return true;
}

double DisjunctiveDistance::Aggregate(const double* d2, std::size_t n) const {
  double denom = 0.0;
  double result = 0.0;
  bool zero = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (d2[i] <= 0.0) {
      zero = true;
      break;
    }
    denom += weights_[i] / d2[i];
  }
  if (!zero) {
    result = denom <= 0.0 ? std::numeric_limits<double>::infinity()
                          : total_weight_ / denom;
  }
  // Eq. 5: monotone non-negative aggregation — the fuzzy OR stays within
  // the [min, max] bounds of its per-cluster inputs.
  QCLUSTER_AUDIT(ValidateDisjunctiveAggregate(d2, weights_.data(), n,
                                              total_weight_, result));
  return result;
}

}  // namespace qcluster::core
