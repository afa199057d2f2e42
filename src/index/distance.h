#ifndef QCLUSTER_INDEX_DISTANCE_H_
#define QCLUSTER_INDEX_DISTANCE_H_

#include <atomic>
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

/// A full term's lower bound on λ_min(Aᵢ), computed by the first rectangle
/// bound that needs it and kept for every later one. Only a tree bounding
/// a rectangle reads it; a scan never does, so a scanned round runs no
/// eigendecomposition. Racing first uses each compute the same bits from
/// the same matrix and store them, so a shared term may be bounded from
/// several threads. A copy carries the bound if it is known. Equality
/// ignores it: it is a function of the matrix, which is compared instead.
class MinEigenvalueBound {
 public:
  MinEigenvalueBound() = default;
  MinEigenvalueBound(const MinEigenvalueBound& other) noexcept
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  MinEigenvalueBound& operator=(const MinEigenvalueBound& other) noexcept {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  /// linalg::MinEigenvalueLowerBound(a) (a Gershgorin fallback when the
  /// decomposition does not converge), computed on the first call and
  /// counted in `index.min_eigenvalue_bounds`. Every call must pass the
  /// same matrix.
  double Of(const linalg::Matrix& a) const;

  friend bool operator==(const MinEigenvalueBound& /*a*/,
                         const MinEigenvalueBound& /*b*/) {
    return true;
  }

 private:
  /// Negative until computed: a computed bound is clamped to >= 0 (or is
  /// NaN), so it never reads as unknown.
  mutable std::atomic<double> value_{-1.0};
};

/// One quadratic term of a metric: dᵢ²(x) = (x − qᵢ)' Aᵢ (x − qᵢ), the one
/// stored form of every quadratic metric's terms. `diagonal` holds diag(Aᵢ)
/// when Aᵢ is diagonal (the covariance scheme the paper adopts) and `full`
/// is then empty; otherwise `diagonal` is empty and `full` holds the
/// symmetric PSD Aᵢ, whose λ_min bound `min_eigenvalue` computes when
/// MinDistance first needs it.
struct QuadraticComponent {
  linalg::Vector query;
  linalg::Vector diagonal;
  linalg::Matrix full;
  MinEigenvalueBound min_eigenvalue;  ///< Of(full); full Aᵢ only.
  double weight = 1.0;  ///< mᵢ in the Eq. 5 combine; unused otherwise.

  /// The term of `query` under the PSD matrix `a`: only diag(a) when `a` is
  /// diagonal, else `a` itself. Neither runs an O(d³) eigendecomposition.
  static QuadraticComponent Of(linalg::Vector query, linalg::Matrix a,
                               double weight = 1.0);

  /// A lower bound of dᵢ²(x) over every x in `rect`: the exact clamped
  /// per-dimension form for a diagonal term, λ_min · d²_euclid (valid for
  /// any PSD Aᵢ) otherwise.
  double MinDistance(const Rect& rect) const;

  /// Structural equality, every entry compared by value — never hashed or
  /// tolerance-matched. index::WarmStart keys its cross-round cache on it,
  /// so a recorded answer is only served under an equal metric. A NaN entry
  /// never compares equal, so such a round is searched again. ±0 compare
  /// equal, which is safe: every kernel accumulates from +0 and clamps to
  /// +0, so no distance depends on a zero's sign. `min_eigenvalue` always
  /// compares equal: it is a function of `full`.
  friend bool operator==(const QuadraticComponent& a,
                         const QuadraticComponent& b) = default;
};

/// The quadratic structure of a metric, stored once by the metric itself
/// and read in place as index::WarmStart's key for an unchanged metric:
/// either one plain quadratic form (`harmonic` false, exactly one
/// component) or the paper's disjunctive aggregate of Eq. 5 over the
/// components (`harmonic` true, the α = −2 weighted power mean
/// Σmᵢ / Σ(mᵢ/d²ᵢ)).
struct QuadraticDecomposition {
  std::vector<QuadraticComponent> components;
  bool harmonic = false;
  double total_weight = 0.0;  ///< Σ mᵢ when harmonic.

  /// Structural equality by value (see QuadraticComponent::operator==).
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

  /// The metric's own quadratic terms, read in place, when it is a
  /// (combination of) quadratic form(s); index::WarmStart reuses a recorded
  /// answer only under an equal decomposition. The default is null: an
  /// opaque metric never matches, so it is always searched again.
  virtual const QuadraticDecomposition* decomposition() const {
    return nullptr;
  }
};

/// Squared Euclidean distance to a fixed query point. Its term is the
/// identity diagonal, but it scores with its own unweighted kernels.
class EuclideanDistance final : public DistanceFunction {
 public:
  explicit EuclideanDistance(linalg::Vector query);

  int dim() const override { return static_cast<int>(query().size()); }
  double DistanceRow(const double* x) const override;
  void DistanceBatch(const linalg::FlatView& view,
                     double* out) const override;
  double MinDistance(const Rect& rect) const override;
  const QuadraticDecomposition* decomposition() const override {
    return &terms_;
  }

 private:
  const linalg::Vector& query() const { return terms_.components[0].query; }

  QuadraticDecomposition terms_;
};

/// Generalized (Mahalanobis) squared distance (x−q)' A (x−q) for a symmetric
/// positive semi-definite A — MindReader's metric, the per-cluster metric
/// of Eq. 1, and with a diagonal A (Matrix::Diagonal(w)) MARS's weighted
/// Euclidean distance. The one term is a QuadraticComponent, which keeps
/// only diag(A) for a diagonal A and bounds rectangles with it exactly.
///
/// Scoring cost: O(d) per point for a diagonal A. A full A is evaluated
/// allocation-free as xᵀAx − 2·xᵀ(Aq) + qᵀAq with A·q and qᵀAq cached at
/// construction (O(d²) per point), never materializing x − q.
class MahalanobisDistance final : public DistanceFunction {
 public:
  MahalanobisDistance(linalg::Vector query, linalg::Matrix inverse_covariance);

  int dim() const override { return static_cast<int>(term().query.size()); }
  double DistanceRow(const double* x) const override;
  void DistanceBatch(const linalg::FlatView& view,
                     double* out) const override;
  double MinDistance(const Rect& rect) const override;
  const QuadraticDecomposition* decomposition() const override {
    return &terms_;
  }

 private:
  const QuadraticComponent& term() const { return terms_.components[0]; }

  QuadraticDecomposition terms_;
  linalg::Vector a_q_;  ///< Cached A·q; full A only.
  double q_aq_ = 0.0;   ///< Cached qᵀAq; full A only.
};

}  // namespace qcluster::index

#endif  // QCLUSTER_INDEX_DISTANCE_H_
