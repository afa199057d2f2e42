#include "core/engine.h"

#include <span>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace qcluster::core {

using linalg::Vector;

namespace {

/// Shrinkage fraction of the adaptive variance floor: each cluster's
/// per-dimension variance is floored at this fraction of the mean pooled
/// variance across all current clusters. Small clusters (few marked images)
/// otherwise produce near-zero variances whose over-tight ellipsoids rank
/// background between the modes above unmarked category members.
constexpr double kAdaptiveFloorFraction = 0.1;

}  // namespace

QclusterEngine::QclusterEngine(const linalg::FlatBlock* database,
                               const index::KnnIndex* knn,
                               const QclusterOptions& options)
    : RetrievalMethod(database, knn, options.k), options_(options) {
  QCLUSTER_CHECK(0.0 < options.alpha && options.alpha < 1.0);
  QCLUSTER_CHECK(options.max_clusters >= 1);
  QCLUSTER_CHECK(options.initial_clusters >= 1);
}

std::uint64_t QclusterEngine::EnsureTraceId() {
  if (trace_id_ == 0 && trace::TracingEnabled()) {
    trace_id_ = trace::NewTraceId();
  }
  return trace_id_;
}

std::vector<index::Neighbor> QclusterEngine::InitialQuery(
    const Vector& query) {
  Reset();
  QCLUSTER_TRACE_ROUND(trace_round, EnsureTraceId(), 0);
  QCLUSTER_TRACE_SPAN(round_span, "engine.initial_query");
  round_span.AddAttr("k", options_.k);
  MetricAdd("engine.initial_queries");
  const index::EuclideanDistance dist(query);
  return RunQuery(dist);
}

std::vector<index::Neighbor> QclusterEngine::Feedback(
    const std::vector<RelevantItem>& marked) {
  QCLUSTER_TRACE_ROUND(trace_round, EnsureTraceId(), iteration_ + 1);
  QCLUSTER_TRACE_SPAN(round_span, "feedback.total");
  round_span.AddAttr("marked", marked.size());
  // The marks new this round; every earlier one is already in a cluster.
  const std::size_t first = AddMarked(marked);
  const std::span<const Vector> points =
      std::span(relevant_points()).subspan(first);
  const std::span<const double> scores =
      std::span(relevant_scores()).subspan(first);
  MetricAdd("engine.feedback.new_points",
            static_cast<long long>(points.size()));

  {
    QCLUSTER_TRACE_SPAN(span, "feedback.classify");
    span.AddAttr("new_points", points.size());
    if (clusters_.empty()) {
      // First round: hierarchical clustering of the relevant set
      // (Algorithm 1 step 1).
      clusters_ = HierarchicalCluster(relevant_points(), relevant_scores(),
                                      options_.initial_clusters);
    } else if (!points.empty()) {
      // Later rounds: adaptive classification (Algorithm 2), under the floor
      // established by the previous round's clusters.
      ClassifierOptions c;
      c.alpha = options_.alpha;
      c.scheme = options_.scheme;
      c.min_variance = floor_ > 0.0 ? floor_ : options_.min_variance;
      c.use_individual_covariances = options_.use_individual_covariances;
      ClassifyBatch(clusters_, points, scores, c);
    }
  }
  UpdateVarianceFloor();

  {
    // Cluster merging (Algorithm 3).
    QCLUSTER_TRACE_SPAN(span, "feedback.merge");
    span.AddAttr("clusters_before", clusters_.size());
    MergeOptions m;
    m.alpha = options_.alpha;
    m.max_clusters = options_.max_clusters;
    m.scheme = options_.scheme;
    m.min_variance = floor_;
    MergeClusters(clusters_, m);
    span.AddAttr("clusters_after", clusters_.size());
  }
  UpdateVarianceFloor();

  ++iteration_;
  MetricAdd("engine.feedback.rounds");
  MetricGauge("engine.clusters", static_cast<double>(clusters_.size()));
  QCLUSTER_TRACE_SPAN(span, "feedback.knn_query");
  span.AddAttr("k", options_.k);
  span.AddAttr("clusters", clusters_.size());
  return RunQuery(CurrentDistance());
}

void QclusterEngine::UpdateVarianceFloor() {
  QCLUSTER_TRACE_SPAN(span, "feedback.variance_floor");
  floor_ = options_.min_variance;
  if (clusters_.empty()) return;
  // Mean diagonal of the pooled within-cluster covariance (Eq. 7 without
  // the per-cluster floor): the scale of "typical" relevant-image spread
  // that small clusters shrink toward.
  std::vector<const stats::WeightedStats*> groups;
  groups.reserve(clusters_.size());
  for (const Cluster& c : clusters_) groups.push_back(&c.stats());
  const linalg::Matrix pooled = stats::PooledCovariance(groups);
  double mean_diag = 0.0;
  for (int d = 0; d < pooled.rows(); ++d) mean_diag += pooled(d, d);
  mean_diag /= pooled.rows();
  const double adaptive = kAdaptiveFloorFraction * mean_diag;
  if (adaptive > floor_) floor_ = adaptive;
}

DisjunctiveDistance QclusterEngine::CurrentDistance() const {
  QCLUSTER_CHECK_MSG(!clusters_.empty(),
                     "no clusters yet; run Feedback first");
  return DisjunctiveDistance(clusters_, options_.scheme,
                             floor_ > 0.0 ? floor_ : options_.min_variance,
                             options_.covariance_shrinkage);
}

void QclusterEngine::Reset() {
  RetrievalMethod::Reset();
  clusters_.clear();
  warm_.Clear();
  iteration_ = 0;
  floor_ = 0.0;
  trace_id_ = 0;  // The next query sequence records under a fresh trace.
}

std::vector<index::Neighbor> QclusterEngine::RunQuery(
    const index::DistanceFunction& dist) {
  // One cached path for every index: round t's answer (recorded into warm_
  // by SearchWarm itself) serves round t+1 as is under an unchanged metric.
  // Results stay bit-for-bit identical to cold searches.
  return Search(dist, options_.use_query_cache ? &warm_ : nullptr);
}

}  // namespace qcluster::core
