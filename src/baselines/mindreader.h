#ifndef QCLUSTER_BASELINES_MINDREADER_H_
#define QCLUSTER_BASELINES_MINDREADER_H_

#include <vector>

#include "core/retrieval_method.h"
#include "index/knn.h"
#include "linalg/matrix.h"

namespace qcluster::baselines {

/// Options for the MindReader baseline.
struct MindReaderOptions {
  int k = 100;
  /// Variance floor added to the relevant-set covariance diagonal before
  /// inversion (the regularization MindReader needs when the relevant set
  /// is smaller than the dimensionality, Sec. 3.2 of the paper).
  double min_variance = 1e-4;
};

/// MindReader [11]: single query point at the score-weighted centroid of
/// the relevant set, with a *generalized* Euclidean metric — the full
/// inverse covariance of the relevant set — so arbitrarily oriented
/// ellipsoids are representable (unlike MARS's axis-aligned weighting).
/// Still a single convex contour: the paper's Fig. 1(a) family, which
/// cannot express disjunctive queries.
class MindReader final : public core::RetrievalMethod {
 public:
  MindReader(const linalg::FlatBlock* database,
             const index::KnnIndex* knn, const MindReaderOptions& options);

  std::string name() const override { return "mindreader"; }
  std::vector<index::Neighbor> InitialQuery(
      const linalg::Vector& query) override;
  std::vector<index::Neighbor> Feedback(
      const std::vector<core::RelevantItem>& marked) override;
  void Reset() override;

  /// Current query point (valid after a Feedback round).
  const linalg::Vector& query_point() const { return query_point_; }
  /// Current metric matrix S^{-1} (valid after a Feedback round).
  const linalg::Matrix& metric() const { return metric_; }

 private:
  MindReaderOptions options_;
  linalg::Vector query_point_;
  linalg::Matrix metric_;
};

}  // namespace qcluster::baselines

#endif  // QCLUSTER_BASELINES_MINDREADER_H_
