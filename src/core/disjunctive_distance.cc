#include "core/disjunctive_distance.h"

#include <limits>

#include "common/check.h"
#include "core/invariants.h"

namespace qcluster::core {

using linalg::Vector;

DisjunctiveDistance::DisjunctiveDistance(const std::vector<Cluster>& clusters,
                                         stats::CovarianceScheme scheme,
                                         double min_variance,
                                         double shrinkage) {
  QCLUSTER_CHECK_MSG(!clusters.empty(), "need at least one cluster");
  QCLUSTER_CHECK(0.0 <= shrinkage && shrinkage < 1.0);
  const int dim = clusters.front().dim();

  // Pooled covariance for the shrinkage target (Eq. 7 across clusters).
  linalg::Matrix pooled(dim, dim, 0.0);
  if (shrinkage > 0.0) {
    std::vector<const stats::WeightedStats*> groups;
    groups.reserve(clusters.size());
    for (const Cluster& c : clusters) groups.push_back(&c.stats());
    pooled = stats::PooledCovariance(groups);
  }

  terms_.harmonic = true;
  terms_.components.reserve(clusters.size());
  weights_.reserve(clusters.size());
  for (const Cluster& c : clusters) {
    QCLUSTER_CHECK(c.dim() == dim);
    QCLUSTER_CHECK(c.weight() > 0.0);
    linalg::Matrix inverse;
    if (shrinkage > 0.0) {
      linalg::Matrix blended = c.Covariance().Scale(1.0 - shrinkage)
                                   .Add(pooled.Scale(shrinkage));
      for (int d = 0; d < dim; ++d) {
        if (blended(d, d) < min_variance) blended(d, d) = min_variance;
      }
      inverse = stats::InvertCovariance(blended, scheme);
    } else {
      inverse = c.InverseCovariance(scheme, min_variance);
    }
    terms_.components.push_back(index::QuadraticComponent::Of(
        c.centroid(), std::move(inverse), c.weight()));
    weights_.push_back(c.weight());
    terms_.total_weight += c.weight();
  }
}

double DisjunctiveDistance::ClusterDistance(std::size_t i,
                                            const double* x) const {
  const auto& kernels = linalg::simd::Kernels();
  const index::QuadraticComponent& term = terms_.components[i];
  const int dim = this->dim();
  if (!term.diagonal.empty()) {
    // Diagonal metric fast path: O(d), no scratch at all.
    return kernels.weighted_sq_row(term.diagonal.data(), term.query.data(), x,
                                   dim);
  }
  // Full metric: reuse a per-thread diff buffer instead of allocating one
  // per point; the quadratic-form kernel itself is allocation-free.
  static thread_local Vector diff;
  diff.resize(static_cast<std::size_t>(dim));
  for (std::size_t d = 0; d < diff.size(); ++d) diff[d] = x[d] - term.query[d];
  return kernels.quadratic_form_row(term.full.data(), diff.data(), dim);
}

linalg::simd::HarmonicSpec DisjunctiveDistance::BuildHarmonicSpec() const {
  static thread_local std::vector<linalg::simd::QuadComponentView> views;
  views.resize(terms_.components.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    const index::QuadraticComponent& term = terms_.components[i];
    linalg::simd::QuadComponentView& v = views[i];
    v.query = term.query.data();
    v.diagonal = term.diagonal.empty() ? nullptr : term.diagonal.data();
    v.full = term.diagonal.empty() ? term.full.data() : nullptr;
    v.weight = term.weight;
  }
  return linalg::simd::HarmonicSpec{views.data(), views.size(),
                                    terms_.total_weight};
}

double DisjunctiveDistance::DistanceRow(const double* x) const {
#ifndef NDEBUG
  if (AuditEnabled()) {
    // Audited path: materialize the per-cluster distances so the Eq. 5
    // aggregation can be validated; routes through Aggregate, which carries
    // the audit. Results are identical — the same ClusterDistance values
    // feed the same accumulation order.
    static thread_local std::vector<double> audit_d2;
    audit_d2.resize(terms_.components.size());
    for (std::size_t i = 0; i < audit_d2.size(); ++i) {
      audit_d2[i] = ClusterDistance(i, x);
    }
    return Aggregate(audit_d2.data(), audit_d2.size());
  }
#endif
  // Eq. 5 fused in the kernel — no per-point d2 buffer, component loop and
  // per-cluster forms in one call.
  static thread_local std::vector<double> scratch;
  scratch.resize(static_cast<std::size_t>(dim()));
  return linalg::simd::Kernels().harmonic_row(BuildHarmonicSpec(), x, dim(),
                                              scratch.data());
}

void DisjunctiveDistance::DistanceBatch(const linalg::FlatView& view,
                                        double* out) const {
  QCLUSTER_CHECK(view.dim == dim());
#ifndef NDEBUG
  if (AuditEnabled()) {
    for (std::size_t i = 0; i < view.n; ++i) out[i] = DistanceRow(view.row(i));
    return;
  }
#endif
  static thread_local std::vector<double> scratch;
  scratch.resize(static_cast<std::size_t>(dim()));
  linalg::simd::Kernels().harmonic_batch(BuildHarmonicSpec(), view.data,
                                         view.n, view.dim, scratch.data(),
                                         out);
}

double DisjunctiveDistance::MinDistance(const index::Rect& rect) const {
  static thread_local std::vector<double> d2;
  d2.resize(terms_.components.size());
  for (std::size_t i = 0; i < d2.size(); ++i) {
    d2[i] = terms_.components[i].MinDistance(rect);
  }
  return Aggregate(d2.data(), d2.size());
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
                          : terms_.total_weight / denom;
  }
  // Eq. 5: monotone non-negative aggregation — the fuzzy OR stays within
  // the [min, max] bounds of its per-cluster inputs.
  QCLUSTER_AUDIT(ValidateDisjunctiveAggregate(d2, weights_.data(), n,
                                              terms_.total_weight, result));
  return result;
}

}  // namespace qcluster::core
