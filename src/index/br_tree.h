#ifndef QCLUSTER_INDEX_BR_TREE_H_
#define QCLUSTER_INDEX_BR_TREE_H_

#include <cstdint>
#include <vector>

#include "index/knn.h"

namespace qcluster::index {

/// A bounding-rectangle tree for k-NN search under arbitrary distance
/// functions, standing in for the hybrid tree [6] the paper indexes its
/// feature vectors with.
///
/// The tree is bulk-loaded by recursive median splits on the widest
/// dimension (the balanced KD-style space partitioning the hybrid tree also
/// produces); every node stores the bounding rectangle of its subtree, and
/// search is the classic best-first traversal ordered by
/// `DistanceFunction::MinDistance` on rectangles. A fetched leaf is a range
/// of `ids_`; its rows are gathered and scored with one `DistanceBatch`
/// call (index::ScoreRows), the kernel and bits of the linear scan.
///
/// Relevance-feedback refinement support: consecutive feedback iterations
/// issue *similar* queries, and the multipoint approach of [7] amortizes
/// work by reusing index information across iterations. The shared
/// `index::WarmStart` session cache keeps the candidate set touched by the
/// previous iteration (plus the leaf pages this tree fetched, tagged with
/// its serial); SearchWarm re-scores those candidates first — one batched
/// kernel call, or free on an exact metric-key match — which yields a tight
/// upper bound on the k-th distance, prunes most node expansions of the
/// refined query (measured in Fig. 7's cost comparison), and never re-reads
/// a cached leaf.
class BrTree final : public KnnIndex {
 public:
  struct Options {
    int leaf_size = 32;  ///< Maximum points per leaf.
  };

  /// Bulk-loads the tree over the rows of `points` (kept alive and
  /// unchanged by the caller).
  BrTree(const linalg::FlatBlock* points, const Options& options);

  /// Bulk-loads with default options.
  explicit BrTree(const linalg::FlatBlock* points)
      : BrTree(points, Options{}) {}

  int size() const override { return static_cast<int>(points_->size()); }

  [[nodiscard]] std::vector<Neighbor> Search(
      const DistanceFunction& dist, int k,
      SearchStats* stats = nullptr) const override;

  /// Best-first search warm-started from `warm` (cold when empty). On
  /// return the cache holds this iteration's touched candidates and leaf
  /// pages, ready for the next refinement step.
  [[nodiscard]] std::vector<Neighbor> SearchWarm(
      const DistanceFunction& dist, int k, WarmStart& warm,
      SearchStats* stats = nullptr) const override;

  /// Number of tree nodes (for tests).
  int node_count() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    Rect rect;
    int left = -1;    ///< Child index, -1 for leaves.
    int right = -1;
    int begin = 0;    ///< Range in ids_ (leaves only).
    int end = 0;
    bool IsLeaf() const { return left < 0; }
  };

  int Build(int begin, int end, int leaf_size);

  /// Shared traversal body. `seed` (nullable) offers the re-scored cached
  /// candidates before the descent; a per-thread byte mark by id keeps a
  /// leaf from offering them again. `leaves` (nullable) holds the cached
  /// leaf pages in ascending order — every point of one is in the seed, so
  /// it is skipped without IO — and receives the pages this search fetches,
  /// appended unsorted. `touched` (nullable) collects this iteration's
  /// scored candidates for the next round's cache.
  std::vector<Neighbor> SearchImpl(const DistanceFunction& dist, int k,
                                   const WarmStart::Seed* seed,
                                   std::vector<int>* leaves,
                                   std::vector<Neighbor>* touched,
                                   SearchStats* stats) const;

  const linalg::FlatBlock* points_;
  std::uint64_t serial_;       ///< Unique per tree; tags WarmStart leaves.
  std::vector<int> ids_;       ///< Point ids, permuted so leaves are ranges.
  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace qcluster::index

#endif  // QCLUSTER_INDEX_BR_TREE_H_
