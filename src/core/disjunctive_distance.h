#ifndef QCLUSTER_CORE_DISJUNCTIVE_DISTANCE_H_
#define QCLUSTER_CORE_DISJUNCTIVE_DISTANCE_H_

#include <cstddef>
#include <vector>

#include "core/cluster.h"
#include "index/distance.h"
#include "linalg/simd.h"

namespace qcluster::core {

/// The aggregate dissimilarity of Eq. 5, the paper's disjunctive multipoint
/// query metric:
///
///   d²(Q, x) = Σ_i m_i  /  Σ_i [ m_i / d²_i(x) ]
///
/// where d²_i(x) = (x − x̄_i)' S_i^{-1} (x − x̄_i) is the per-cluster
/// generalized distance of Eq. 1. This is the α = −2 weighted power mean of
/// the per-cluster distances — a fuzzy OR: proximity to *any* representative
/// dominates, so separated contours (Fig. 1(c), Fig. 5) are retrieved
/// together.
///
/// A point exactly at a centroid has distance 0. Rectangle pruning uses the
/// same harmonic combination of per-cluster lower bounds, which is a valid
/// lower bound because the aggregate is monotone in each d²_i.
///
/// Scoring is allocation-free on the hot path: diagonal cluster metrics
/// (the adopted scheme) use an O(d) per-dimension loop, and full metrics
/// reuse a per-thread diff scratch buffer, so both the scalar and the
/// batched entry points are safe to call concurrently from the scan pool.
class DisjunctiveDistance final : public index::DistanceFunction {
 public:
  /// Captures each cluster's centroid, weight mᵢ and inverse covariance
  /// under `scheme` as one index::QuadraticComponent. The distance object is
  /// self-contained: later changes to the clusters do not affect it.
  ///
  /// `shrinkage` λ applies RDA-style covariance shrinkage: each cluster
  /// metric uses S_i' = (1 − λ) S_i + λ S_pooled, where S_pooled is the
  /// pooled covariance across all clusters (Eq. 7). Shrinkage stabilizes
  /// the ellipsoids of small clusters (few marked images) whose sample
  /// covariances are unreliable; λ = 0 uses each S_i as it is.
  DisjunctiveDistance(const std::vector<Cluster>& clusters,
                      stats::CovarianceScheme scheme, double min_variance,
                      double shrinkage = 0.0);

  int dim() const override {
    return static_cast<int>(terms_.components[0].query.size());
  }
  double DistanceRow(const double* x) const override;
  void DistanceBatch(const linalg::FlatView& view,
                     double* out) const override;
  double MinDistance(const index::Rect& rect) const override;

  /// One component per cluster (centroid, Sᵢ⁻¹, mᵢ) under the harmonic
  /// Eq. 5 combine — index::WarmStart's key for an unchanged metric.
  const index::QuadraticDecomposition* decomposition() const override {
    return &terms_;
  }

  /// Number of query points (clusters) in the aggregate.
  int cluster_count() const {
    return static_cast<int>(terms_.components.size());
  }

 private:
  /// Eq. 1 for cluster `i` at the raw point `x` (length dim()): O(d) for
  /// diagonal metrics, O(d²) with per-thread scratch for full ones.
  double ClusterDistance(std::size_t i, const double* x) const;

  /// Borrows this object's clusters as the kernel-facing Eq. 5 spec. The
  /// component views live in per-thread storage (rebuilt per call, pointer
  /// fills only), so copies of this object stay safe and concurrent scans
  /// never share them.
  linalg::simd::HarmonicSpec BuildHarmonicSpec() const;

  /// Eq. 5 over precomputed per-cluster squared distances d2[0..n).
  double Aggregate(const double* d2, std::size_t n) const;

  index::QuadraticDecomposition terms_;
  std::vector<double> weights_;  ///< The mᵢ again, contiguous for the audit.
};

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_DISJUNCTIVE_DISTANCE_H_
