#ifndef QCLUSTER_INDEX_LINEAR_SCAN_H_
#define QCLUSTER_INDEX_LINEAR_SCAN_H_

#include <vector>

#include "common/thread_pool.h"
#include "index/knn.h"
#include "linalg/flat_view.h"

namespace qcluster::index {

/// Exact k-NN by exhaustive scan. The correctness oracle for the BR-tree and
/// the baseline for index cost comparisons.
///
/// Scoring runs through the batched pipeline: points live in one contiguous
/// row-major block, each query calls DistanceFunction::DistanceBatch over
/// per-thread shards, and every shard keeps a bounded top-k heap that is
/// merged at the end. Results are identical at any thread count (ties break
/// by id), so `QCLUSTER_THREADS=1` reproduces a parallel run bit for bit.
class LinearScanIndex final : public KnnIndex {
 public:
  /// Indexes the rows of `view` in place (e.g.
  /// FeatureDatabase::flat_view()); the block owner keeps them alive and
  /// unchanged for the lifetime of the index. `pool` is the scan pool to
  /// use (nullptr = the process-global ThreadPool::Global()).
  explicit LinearScanIndex(linalg::FlatView view, ThreadPool* pool = nullptr);

  int size() const override { return static_cast<int>(view_.n); }
  [[nodiscard]] std::vector<Neighbor> Search(
      const DistanceFunction& dist, int k,
      SearchStats* stats = nullptr) const override;

 private:
  /// Warm scan: re-scores the recorded answer for a certified θ₀
  /// (WarmStart::Reseed), then rejects candidates with distance > θ₀ before
  /// heap admission in every shard. Byte-identical to Search — rejected
  /// points can never reach the merged top-k.
  std::vector<Neighbor> SearchUncached(const DistanceFunction& dist, int k,
                                       WarmStart& warm,
                                       SearchStats* stats) const override;

  /// Shared scan body; `seed` (nullable) supplies the θ₀ admission bound
  /// and `rejected_out` (nullable) receives the count of points it skipped.
  std::vector<Neighbor> SearchImpl(const DistanceFunction& dist, int k,
                                   const WarmStart::Seed* seed,
                                   long long* rejected_out,
                                   SearchStats* stats) const;

  linalg::FlatView view_;
  ThreadPool* const pool_;   ///< nullptr = ThreadPool::Global().
};

/// Selects the k smallest of `all` under NeighborOrder, sorted: shared
/// helper for index implementations.
std::vector<Neighbor> TopK(std::vector<Neighbor> all, int k);

}  // namespace qcluster::index

#endif  // QCLUSTER_INDEX_LINEAR_SCAN_H_
