#ifndef QCLUSTER_INDEX_FILTER_REFINE_H_
#define QCLUSTER_INDEX_FILTER_REFINE_H_

#include <memory>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "index/knn.h"
#include "index/linear_scan.h"
#include "linalg/flat_view.h"
#include "linalg/pca.h"

namespace qcluster::index {

/// Exact k-NN by GEMINI-style filter-and-refine: a cheap contractive
/// lower-bound scan over a PCA-reduced block prunes the database, and only
/// the survivors are re-scored with the full-dimension kernels.
///
/// The filter exploits the invariance the paper proves in Theorem 1 /
/// Eq. 17-19: a quadratic-form distance is a plain squared Euclidean norm in
/// whitened coordinates, so rotating into the whitened principal basis and
/// truncating to k' < d dimensions yields `||P(x−q)||² <= d²(x,q)`
/// (linalg::Projector). For the disjunctive aggregate of Eq. 5, per-cluster
/// reduced distances are combined with the same α = −2 harmonic rule, which
/// lower-bounds the true aggregate because Eq. 5 is monotone in each
/// argument. The pipeline:
///
///  1. **Filter.** Score the reduced block (one contiguous FlatBlock of
///     `components · k'` doubles per point, cached and rebuilt lazily when
///     the metric's covariance changes) with the existing batched Euclidean
///     kernel — per-cluster segments harmonically combined for disjunctive
///     queries — into a lower-bound array, sharded over the thread pool.
///  2. **Seed.** Refine the k points with the smallest lower bounds exactly;
///     their k-th exact distance θ is an upper bound on the true k-th-NN
///     distance (they are real points).
///  3. **Refine.** Re-score every point whose lower bound is <= θ with the
///     full-dimension `DistanceBatch` kernel; prune the rest. Survivor
///     refinement shares LinearScanIndex's sharded top-k merge.
///
/// The filter only prunes, never approximates: results are bit-for-bit
/// identical to LinearScanIndex under the same metric — same ids, same
/// distances (they come from the same kernels), same (distance, id)
/// tie-breaks — at every k' and every thread count. A metric that does not
/// expose its quadratic structure (DistanceFunction::Decompose returns
/// false) transparently falls back to the exhaustive batch scan, and so
/// does one whose full covariance cannot be certified strictly positive
/// definite (linalg::Projector::contractive()) — an indefinite metric
/// admits no non-negative lower bound, so pruning under it would be wrong.
class FilterRefineIndex final : public KnnIndex {
 public:
  /// Zero-copy index over an external contiguous block (e.g.
  /// dataset::FeatureDatabase::flat_view()); the block owner keeps it alive
  /// and unchanged for the lifetime of the index. `pca_dims` is the reduced
  /// dimensionality k' per metric component: > 0 explicit (clamped to the
  /// feature dimension at query time), <= 0 auto (max(1, d/4)). `pool` is
  /// the scan pool (nullptr = ThreadPool::Global()).
  FilterRefineIndex(linalg::FlatView view, int pca_dims,
                    ThreadPool* pool = nullptr);

  int size() const override { return static_cast<int>(view_.n); }

  /// The resolved reduced dimensionality for a metric of dimension `dim`.
  int reduced_dims(int dim) const;

  [[nodiscard]] std::vector<Neighbor> Search(
      const DistanceFunction& dist, int k,
      SearchStats* stats = nullptr) const override;

  /// Warm-started search: the previous round's survivors are re-scored for
  /// a certified θ₀, and the survivor cut uses min(θ_seed, θ₀) — the warm
  /// certificate is usually much tighter than the filter's own seed bound
  /// (the cached ids were the *exact* top-k of a nearby metric, the seeds
  /// only the best reduced-space bounds), so the refine phase shrinks while
  /// the result stays byte-identical. Opaque/uncertified metrics warm-start
  /// the exhaustive fallback instead.
  [[nodiscard]] std::vector<Neighbor> SearchWarm(
      const DistanceFunction& dist, int k, WarmStart& warm,
      SearchStats* stats = nullptr) const override;

  /// Number of times the cached projected block has been (re)built — one
  /// per distinct covariance structure seen (exposed for tests).
  long long rebuilds() const;

 private:
  /// The cached reduced representation of the database for one covariance
  /// structure: per-component projectors plus the projected block whose row
  /// i is the concatenation [P₀(xᵢ) | P₁(xᵢ) | ...].
  struct Projection {
    std::vector<linalg::Vector> key_diagonals;  ///< Per component; empty ⇒ full.
    std::vector<linalg::Matrix> key_fulls;
    int reduced = 0;  ///< k' per component.
    std::vector<linalg::Projector> projectors;
    linalg::FlatBlock block;
    /// False when any component failed contractiveness certification; the
    /// block is then left empty and searches take the exhaustive fallback.
    bool usable = true;
  };

  /// `*reused` (optional) reports whether the cached projection matched —
  /// i.e. the metric's covariance structure is unchanged since the last
  /// search on this index. The (expensive) projector refit and block
  /// repack run outside mu_; only the cache probe and install hold it.
  std::shared_ptr<const Projection> EnsureProjection(
      const QuadraticDecomposition& decomp, int reduced,
      bool* reused = nullptr) const;

  /// cache_ when it matches (decomp, reduced), else nullptr.
  std::shared_ptr<const Projection> CachedProjectionLocked(
      const QuadraticDecomposition& decomp, int reduced) const
      QCLUSTER_REQUIRES(mu_);

  /// Shared pipeline body. When `warm` is non-null the survivor bound is
  /// tightened to min(θ_seed, θ₀), this round's result is recorded back
  /// into the cache, and fallbacks warm-start the exhaustive scan. On a
  /// metric-stable round (projection reused) a valid warm certificate
  /// replaces the seed phase outright — θ₀ alone prunes, saving the seed
  /// top-k sweep and its k exact refinements.
  std::vector<Neighbor> SearchImpl(const DistanceFunction& dist, int k,
                                   WarmStart* warm, SearchStats* stats) const;

  ThreadPool& pool() const;

  // Built once in the ctor and never reassigned: the database view and
  // fallback index are structurally immutable, so searches read them
  // without mu_ (which only protects the projection cache below).
  linalg::FlatView view_;     // qlint: unguarded(immutable after ctor)
  const int pca_dims_;
  ThreadPool* const pool_;  ///< nullptr = ThreadPool::Global().
  LinearScanIndex fallback_;  // qlint: unguarded(immutable; locks internally)

  mutable Mutex mu_;
  mutable std::shared_ptr<const Projection> cache_ QCLUSTER_GUARDED_BY(mu_);
  mutable long long rebuilds_ QCLUSTER_GUARDED_BY(mu_) = 0;
};

}  // namespace qcluster::index

#endif  // QCLUSTER_INDEX_FILTER_REFINE_H_
