#include "core/merging.h"

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/closest_pair.h"
#include "stats/distributions.h"
#include "stats/hotelling.h"

namespace qcluster::core {

using linalg::Matrix;

namespace {

/// Multiplicative α relaxation applied while the count still exceeds
/// max_clusters but the closest pair rejects H0.
constexpr double kAlphaRelax = 0.1;
/// Lower bound on the relaxed α; below it the closest pair (smallest T²)
/// merges unconditionally, so the pass always terminates.
constexpr double kMinAlpha = 1e-9;

/// T² of Eq. 14 with the pair's pooled covariance (Eq. 15) floored at
/// `min_variance` and inverted under the configured scheme.
double PairT2(const Cluster& a, const Cluster& b,
              const MergeOptions& options) {
  Matrix pooled = stats::PooledCovariancePair(a.stats(), b.stats());
  for (int d = 0; d < a.dim(); ++d) {
    if (pooled(d, d) < options.min_variance) {
      pooled(d, d) = options.min_variance;
    }
  }
  const Matrix pooled_inverse = stats::InvertCovariance(pooled, options.scheme);
  return stats::HotellingT2WithInverse(a.stats(), b.stats(), pooled_inverse);
}

/// c² of Eq. 16 for the pair; when m_i + m_j ≤ p + 1 the F distribution
/// degenerates and the asymptotic χ²_p(α) bound stands in.
double PairCriticalDistance(const Cluster& a, const Cluster& b,
                            double alpha) {
  const int dim = a.dim();
  Result<double> c2 =
      stats::HotellingCriticalDistance(a.weight() + b.weight(), dim, alpha);
  return c2.ok() ? c2.value()
                 : stats::ChiSquaredUpperQuantile(alpha,
                                                  static_cast<double>(dim));
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

  ClosestPairTable table(clusters,
                         [&options](const Cluster& a, const Cluster& b) {
                           return PairT2(a, b, options);
                         });
  while (clusters.size() > 1) {
    // c² depends only on α, p and m_i + m_j, so pairs are ranked by T²
    // alone and c² is computed for the one pair this step acts on. The
    // first pair stands in when no T² is below +∞ (NaN or overflowing
    // features); it fails every c² test, so an over-cap pass relaxes α and
    // then forces it.
    const ClosestPairTable::Pair best = table.Closest();
    const Cluster& a = clusters[static_cast<std::size_t>(best.i)];
    const Cluster& b = clusters[static_cast<std::size_t>(best.j)];
    const bool over_cap =
        static_cast<int>(clusters.size()) > options.max_clusters;
    bool passes = best.score <= PairCriticalDistance(a, b, alpha);
    // Over the cap with the closest pair rejecting H0: Algorithm 3 line 8 —
    // increase the critical distance by relaxing α. The clusters do not
    // change, so neither does the ranking; each relaxation costs one c².
    while (!passes && over_cap && alpha > kMinAlpha) {
      alpha *= kAlphaRelax;
      if (alpha < kMinAlpha) alpha = kMinAlpha;
      report.final_alpha = alpha;
      passes = best.score <= PairCriticalDistance(a, b, alpha);
    }
    if (!passes && !over_cap) break;  // Statistically distinct, within cap.
    table.Merge(best);
    ++report.merges;
    // Once α bottoms out the closest pair merges unconditionally.
    if (!passes) ++report.forced_merges;
  }
  MetricAdd("merge.passes");
  MetricAdd("merge.pair_scores", table.scores());
  MetricAdd("merge.merges", report.merges);
  MetricAdd("merge.forced_merges", report.forced_merges);
  return report;
}

}  // namespace qcluster::core
