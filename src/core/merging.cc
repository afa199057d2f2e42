#include "core/merging.h"

#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "stats/distributions.h"
#include "stats/hotelling.h"

namespace qcluster::core {

using linalg::Matrix;
using linalg::Vector;

MergeCandidate EvaluateMergePair(const std::vector<Cluster>& clusters, int i,
                                 int j, double alpha,
                                 const MergeOptions& options) {
  QCLUSTER_CHECK(0 <= i && i < static_cast<int>(clusters.size()));
  QCLUSTER_CHECK(0 <= j && j < static_cast<int>(clusters.size()));
  QCLUSTER_CHECK(i != j);
  const Cluster& a = clusters[static_cast<std::size_t>(i)];
  const Cluster& b = clusters[static_cast<std::size_t>(j)];
  const int dim = a.dim();

  // Pooled covariance of the pair (Eq. 15) with the variance floor, then T²
  // under the configured scheme.
  Matrix pooled = stats::PooledCovariancePair(a.stats(), b.stats());
  for (int d = 0; d < dim; ++d) {
    if (pooled(d, d) < options.min_variance) {
      pooled(d, d) = options.min_variance;
    }
  }
  const Matrix pooled_inverse = stats::InvertCovariance(pooled, options.scheme);

  MergeCandidate candidate;
  candidate.i = i;
  candidate.j = j;
  candidate.t2 =
      stats::HotellingT2WithInverse(a.stats(), b.stats(), pooled_inverse);
  Result<double> c2 = stats::HotellingCriticalDistance(
      a.weight() + b.weight(), dim, alpha);
  candidate.c2 = c2.ok()
                     ? c2.value()
                     // Degenerate dof: fall back to the asymptotic χ² bound.
                     : stats::ChiSquaredUpperQuantile(alpha,
                                                      static_cast<double>(dim));
  return candidate;
}

namespace {

/// Multiplicative α relaxation applied while the count still exceeds
/// max_clusters but every remaining pair rejects H0.
constexpr double kAlphaRelax = 0.1;
/// Lower bound on the relaxed α; below it the closest pair (smallest T²)
/// merges unconditionally, so the pass always terminates.
constexpr double kMinAlpha = 1e-9;

/// Returns the candidate with the smallest T² among all pairs.
MergeCandidate BestPair(const std::vector<Cluster>& clusters, double alpha,
                        const MergeOptions& options) {
  MergeCandidate best;
  best.t2 = std::numeric_limits<double>::infinity();
  best.c2 = -std::numeric_limits<double>::infinity();
  const int g = static_cast<int>(clusters.size());
  for (int i = 0; i < g; ++i) {
    for (int j = i + 1; j < g; ++j) {
      const MergeCandidate c =
          EvaluateMergePair(clusters, i, j, alpha, options);
      if (c.t2 < best.t2) best = c;
    }
  }
  return best;
}

void ApplyMerge(std::vector<Cluster>& clusters, int i, int j) {
  QCLUSTER_CHECK(i < j);
  clusters[static_cast<std::size_t>(i)] =
      Cluster::Merged(clusters[static_cast<std::size_t>(i)],
                      clusters[static_cast<std::size_t>(j)]);
  clusters.erase(clusters.begin() + j);
}

}  // namespace

MergeReport MergeClusters(std::vector<Cluster>& clusters,
                          const MergeOptions& options) {
  QCLUSTER_CHECK(options.max_clusters >= 1);
  QCLUSTER_CHECK(0.0 < options.alpha && options.alpha < 1.0);
  QCLUSTER_TRACE_SPAN(span, "merge.pass");
  span.AddAttr("clusters_in", clusters.size());

  MergeReport report;
  double alpha = options.alpha;
  report.final_alpha = alpha;

  while (clusters.size() > 1) {
    const MergeCandidate best = BestPair(clusters, alpha, options);
    const bool over_cap =
        static_cast<int>(clusters.size()) > options.max_clusters;
    if (best.mergeable()) {
      ApplyMerge(clusters, best.i, best.j);
      ++report.merges;
      continue;
    }
    if (!over_cap) break;  // Statistically distinct and within the cap.
    // Over the cap with every pair rejecting H0: Algorithm 3 line 8 —
    // increase the critical distance by relaxing α; force the closest pair
    // once α bottoms out.
    if (alpha > kMinAlpha) {
      alpha *= kAlphaRelax;
      if (alpha < kMinAlpha) alpha = kMinAlpha;
      report.final_alpha = alpha;
      continue;
    }
    ApplyMerge(clusters, best.i, best.j);
    ++report.merges;
    ++report.forced_merges;
  }
  MetricAdd("merge.passes");
  MetricAdd("merge.merges", report.merges);
  MetricAdd("merge.forced_merges", report.forced_merges);
  return report;
}

}  // namespace qcluster::core
