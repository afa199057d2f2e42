#ifndef QCLUSTER_BASELINES_FALCON_H_
#define QCLUSTER_BASELINES_FALCON_H_

#include <vector>

#include "core/retrieval_method.h"
#include "index/knn.h"

namespace qcluster::baselines {

/// Options for the FALCON baseline.
struct FalconOptions {
  int k = 100;
  /// The aggregation exponent α of the FALCON aggregate dissimilarity;
  /// negative values mimic a fuzzy OR. The FALCON paper recommends and
  /// mostly uses α = −5.
  double alpha = -5.0;
};

/// FALCON's aggregate dissimilarity over the "good set" G [20]:
///   D_α(G, x) = ( (1/|G|) Σ_i d(g_i, x)^α )^{1/α},  α < 0,
/// with Euclidean base distance and *every* relevant point kept as a query
/// point (the design this paper contrasts with its cluster representatives:
/// Sec. 2, "this model assumes that all relevant points are query points").
class FalconDistance final : public index::DistanceFunction {
 public:
  FalconDistance(std::vector<linalg::Vector> good_set, double alpha);

  int dim() const override { return dim_; }
  double DistanceRow(const double* x) const override;
  double MinDistance(const index::Rect& rect) const override;

 private:
  int dim_;
  std::vector<linalg::Vector> points_;
  double alpha_;
};

/// The FALCON feedback loop: the good set is the session's relevant set
/// (relevant_points(), scores unused); each round queries with the
/// aggregate dissimilarity. Used in the execution-cost comparison (Fig. 7).
class Falcon final : public core::RetrievalMethod {
 public:
  Falcon(const linalg::FlatBlock* database,
         const index::KnnIndex* knn, const FalconOptions& options);

  std::string name() const override { return "falcon"; }
  std::vector<index::Neighbor> Feedback(
      const std::vector<core::RelevantItem>& marked) override;

 private:
  FalconOptions options_;
};

}  // namespace qcluster::baselines

#endif  // QCLUSTER_BASELINES_FALCON_H_
