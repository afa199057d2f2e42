#ifndef QCLUSTER_INDEX_DISTANCE_H_
#define QCLUSTER_INDEX_DISTANCE_H_

#include <memory>

#include "linalg/flat_view.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace qcluster::index {

/// Axis-aligned bounding rectangle in feature space.
struct Rect {
  linalg::Vector lo;
  linalg::Vector hi;

  int dim() const { return static_cast<int>(lo.size()); }

  /// Grows the rectangle to contain the dim()-length row `x`.
  void Expand(const double* x);

  /// A rectangle containing nothing (lo = +inf, hi = -inf), ready to Expand.
  static Rect Empty(int dim);

  /// Squared Euclidean distance from `x` to the rectangle (0 if inside).
  double SquaredEuclideanDistance(const linalg::Vector& x) const;
};

/// One quadratic term of a decomposable metric: the component contributes
/// d²ᵢ(x) = (x − qᵢ)' Aᵢ (x − qᵢ) to the aggregate. `diagonal` holds
/// diag(Aᵢ) for a diagonal metric (the covariance scheme the paper adopts);
/// otherwise it is empty and `full` holds the symmetric PSD Aᵢ.
struct QuadraticComponent {
  linalg::Vector query;
  linalg::Vector diagonal;
  linalg::Matrix full;
  double weight = 1.0;  ///< mᵢ in the Eq. 5 combine; unused otherwise.

  /// Exact structural equality — every entry compared bit for bit, never
  /// hashed or tolerance-matched. index::WarmStart keys its cross-round
  /// cache on it, so stored distances are only ever reused under the
  /// *identical* metric.
  friend bool operator==(const QuadraticComponent& a,
                         const QuadraticComponent& b) = default;
};

/// The quadratic structure of a metric, the key index::WarmStart stores to
/// recognize an unchanged metric across rounds: either one plain quadratic
/// form (`harmonic` false, exactly one component) or the paper's
/// disjunctive aggregate of Eq. 5 over the components (`harmonic` true, the
/// α = −2 weighted power mean Σmᵢ / Σ(mᵢ/d²ᵢ)).
struct QuadraticDecomposition {
  std::vector<QuadraticComponent> components;
  bool harmonic = false;
  double total_weight = 0.0;  ///< Σ mᵢ when harmonic.

  /// Exact structural equality (see QuadraticComponent::operator==).
  friend bool operator==(const QuadraticDecomposition& a,
                         const QuadraticDecomposition& b) = default;
};

/// A query-to-point dissimilarity measure, the abstraction the k-NN index
/// searches under. Relevance feedback continually *changes* the metric (new
/// weights, new query points, new cluster shapes), so the index must treat
/// the metric as an opaque callable with an optional rectangle lower bound
/// for pruning.
///
/// Distance values only need to rank consistently; all implementations in
/// this library return squared quadratic forms.
class DistanceFunction {
 public:
  virtual ~DistanceFunction() = default;

  /// Feature-space dimensionality this function expects.
  virtual int dim() const = 0;

  /// Dissimilarity between the (implicit) query and a raw row of dim()
  /// doubles — the one per-point entry, which the batch default loops
  /// over.
  virtual double DistanceRow(const double* x) const = 0;

  /// DistanceRow on a Vector, after checking that its size is dim().
  double Distance(const linalg::Vector& x) const;

  /// Scores every row of `view` into out[0..view.n). `view.dim` must equal
  /// dim() and `out` must hold view.n doubles.
  ///
  /// Contract: DistanceBatch(view, out)[i] must equal DistanceRow(row i)
  /// *bit for bit* — implementations route both entry points through one
  /// shared kernel (linalg/simd.h, whose canonical reduction order also
  /// makes results identical across dispatch tiers) — so a value never
  /// depends on which entry point or batch (a scan shard, a gathered tree
  /// leaf, a re-scored warm seed) scored it, and indexes can be
  /// cross-validated with exact comparisons. Overrides must be thread-safe:
  /// shards of one view are scored concurrently. The default loops over
  /// DistanceRow and never allocates per row.
  virtual void DistanceBatch(const linalg::FlatView& view, double* out) const;

  /// A lower bound of `Distance(x)` over all x in `rect`. The default (0)
  /// disables pruning but keeps the search correct.
  virtual double MinDistance(const Rect& rect) const;

  /// Fills `out` with the metric's quadratic structure and returns true when
  /// the metric is a (combination of) quadratic form(s); index::WarmStart
  /// reuses cached distances only under an equal decomposition. The default
  /// returns false: an opaque metric never matches, so its cached rows are
  /// always re-scored.
  virtual bool Decompose(QuadraticDecomposition* out) const;
};

/// Squared Euclidean distance to a fixed query point.
class EuclideanDistance final : public DistanceFunction {
 public:
  explicit EuclideanDistance(linalg::Vector query);

  int dim() const override { return static_cast<int>(query_.size()); }
  double DistanceRow(const double* x) const override;
  void DistanceBatch(const linalg::FlatView& view,
                     double* out) const override;
  double MinDistance(const Rect& rect) const override;
  bool Decompose(QuadraticDecomposition* out) const override;

 private:
  linalg::Vector query_;
};

/// Per-dimension weighted squared Euclidean distance — MARS's metric. All
/// weights must be non-negative.
class WeightedEuclideanDistance final : public DistanceFunction {
 public:
  WeightedEuclideanDistance(linalg::Vector query, linalg::Vector weights);

  int dim() const override { return static_cast<int>(query_.size()); }
  double DistanceRow(const double* x) const override;
  void DistanceBatch(const linalg::FlatView& view,
                     double* out) const override;
  double MinDistance(const Rect& rect) const override;
  bool Decompose(QuadraticDecomposition* out) const override;

 private:
  linalg::Vector query_;
  linalg::Vector weights_;
};

/// Generalized (Mahalanobis) squared distance (x−q)' A (x−q) for a symmetric
/// positive semi-definite A — MindReader's metric and the per-cluster metric
/// of Eq. 1. Rectangle pruning uses the exact per-dimension bound when A is
/// diagonal and λ_min(A) · d²_euclid(rect) — a valid lower bound for any
/// PSD A — otherwise.
///
/// Construction cost: a diagonal A (the scheme the paper adopts) needs no
/// λ_min; only a full matrix pays the O(d³) eigendecomposition, with a
/// Gershgorin-disc lower bound as the fallback when the decomposition does
/// not converge (linalg::MinEigenvalueLowerBound).
///
/// Scoring cost: the quadratic form is evaluated allocation-free as
/// xᵀAx − 2·xᵀ(Aq) + qᵀAq with A·q and qᵀAq cached at construction (O(d)
/// per point for diagonal A, O(d²) otherwise), never materializing x − q.
class MahalanobisDistance final : public DistanceFunction {
 public:
  MahalanobisDistance(linalg::Vector query, linalg::Matrix inverse_covariance);

  int dim() const override { return static_cast<int>(query_.size()); }
  double DistanceRow(const double* x) const override;
  void DistanceBatch(const linalg::FlatView& view,
                     double* out) const override;
  double MinDistance(const Rect& rect) const override;
  bool Decompose(QuadraticDecomposition* out) const override;

 private:
  linalg::Vector query_;
  linalg::Matrix inverse_covariance_;
  bool diagonal_;                ///< All off-diagonal entries exactly 0.
  linalg::Vector diagonal_weights_;  ///< diag(A) when diagonal_.
  linalg::Vector a_q_;           ///< Cached A·q.
  double q_aq_;                  ///< Cached qᵀAq.
  double min_eigenvalue_;        ///< λ_min(A) bound; full A only.
};

}  // namespace qcluster::index

#endif  // QCLUSTER_INDEX_DISTANCE_H_
