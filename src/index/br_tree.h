#ifndef QCLUSTER_INDEX_BR_TREE_H_
#define QCLUSTER_INDEX_BR_TREE_H_

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
/// work by caching index pages across iterations. SearchWarm keeps two
/// things in the session's `index::WarmStart`: the answer, returned as is
/// when the metric has not changed (KnnIndex::SearchWarm), and the leaf
/// pages this tree has read, tagged with its serial. Any other round runs
/// the cold traversal, so it evaluates and visits what a cold search does;
/// a cached leaf is scored when reached but is never read again (Fig. 7's
/// IO saving).
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

  /// The cold traversal with this tree's page list in `warm`.
  std::vector<Neighbor> SearchUncached(const DistanceFunction& dist, int k,
                                       WarmStart& warm,
                                       SearchStats* stats) const override;

  /// Shared best-first traversal. `pages` (nullable) holds cached leaf pages
  /// in ascending order: a cached leaf is scored but counts no page read,
  /// and the pages this search reads are appended, unsorted.
  std::vector<Neighbor> SearchImpl(const DistanceFunction& dist, int k,
                                   std::vector<int>* pages,
                                   SearchStats* stats) const;

  const linalg::FlatBlock* points_;
  std::vector<int> ids_;       ///< Point ids, permuted so leaves are ranges.
  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace qcluster::index

#endif  // QCLUSTER_INDEX_BR_TREE_H_
