#include "core/classifier.h"

#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/decomposition.h"
#include "stats/distributions.h"
#include "stats/weighted_stats.h"

namespace qcluster::core {

using linalg::Matrix;
using linalg::Vector;

namespace {

/// QDA scores: each cluster's own (floored) covariance with the −½ln|Sᵢ|
/// normalization term of Eq. 8's normal-density special case.
std::vector<double> IndividualCovarianceScores(
    const std::vector<Cluster>& clusters, const Vector& x,
    const ClassifierOptions& options, double total_weight) {
  std::vector<double> scores(clusters.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    linalg::Matrix cov = clusters[i].Covariance();
    double floored_log_det = 0.0;
    for (int d = 0; d < cov.rows(); ++d) {
      if (cov(d, d) < options.min_variance) cov(d, d) = options.min_variance;
    }
    const double det = linalg::Determinant(cov);
    floored_log_det = std::log(std::max(det, 1e-300));
    const double quad = clusters[i].DistanceSquared(x, options.scheme,
                                                    options.min_variance);
    const double w = clusters[i].weight() / total_weight;
    scores[i] = -0.5 * floored_log_det - 0.5 * quad + std::log(w);
  }
  return scores;
}

/// Lemma 1's effective radius χ²_p(α). It depends on α and p alone, so a
/// batch computes it once.
double EffectiveRadius(const std::vector<Cluster>& clusters,
                       const ClassifierOptions& options) {
  QCLUSTER_CHECK(!clusters.empty());
  return stats::ChiSquaredUpperQuantile(
      options.alpha, static_cast<double>(clusters.front().dim()));
}

/// Algorithm 2 for one point, against a radius the caller computed.
ClassificationDecision ClassifyWithin(const std::vector<Cluster>& clusters,
                                      const Vector& x,
                                      const ClassifierOptions& options,
                                      double radius) {
  const std::vector<double> scores =
      ClassificationScores(clusters, x, options);
  int best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }

  ClassificationDecision decision;
  decision.score = scores[static_cast<std::size_t>(best)];
  // Lemma 1 / Algorithm 2 line 4: the winner keeps the point only when it
  // falls inside the effective radius under the cluster's own metric.
  decision.radius = radius;
  decision.radius_d2 =
      clusters[static_cast<std::size_t>(best)].DistanceSquared(
          x, options.scheme, options.min_variance);
  decision.cluster = decision.radius_d2 < decision.radius ? best : -1;
  return decision;
}

}  // namespace

std::vector<double> ClassificationScores(const std::vector<Cluster>& clusters,
                                         const Vector& x,
                                         const ClassifierOptions& options) {
  QCLUSTER_CHECK(!clusters.empty());
  const int dim = clusters.front().dim();
  QCLUSTER_CHECK(static_cast<int>(x.size()) == dim);

  if (options.use_individual_covariances) {
    double total_weight = 0.0;
    for (const Cluster& c : clusters) total_weight += c.weight();
    QCLUSTER_CHECK(total_weight > 0.0);
    return IndividualCovarianceScores(clusters, x, options, total_weight);
  }

  // S_pooled of Eq. 7 across all current clusters, with the same variance
  // floor the per-cluster metrics use.
  std::vector<const stats::WeightedStats*> groups;
  groups.reserve(clusters.size());
  double total_weight = 0.0;
  for (const Cluster& c : clusters) {
    groups.push_back(&c.stats());
    total_weight += c.weight();
  }
  QCLUSTER_CHECK(total_weight > 0.0);
  Matrix pooled = stats::PooledCovariance(groups);
  for (int i = 0; i < pooled.rows(); ++i) {
    if (pooled(i, i) < options.min_variance) {
      pooled(i, i) = options.min_variance;
    }
  }
  const Matrix pooled_inverse =
      stats::InvertCovariance(pooled, options.scheme);

  std::vector<double> scores(clusters.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const Vector diff = linalg::Sub(x, clusters[i].centroid());
    const double quad = linalg::QuadraticForm(diff, pooled_inverse, diff);
    const double w = clusters[i].weight() / total_weight;
    scores[i] = -0.5 * quad + std::log(w);  // Eq. 10.
  }
  return scores;
}

ClassificationDecision Classify(const std::vector<Cluster>& clusters,
                                const Vector& x,
                                const ClassifierOptions& options) {
  return ClassifyWithin(clusters, x, options,
                        EffectiveRadius(clusters, options));
}

std::vector<ClassificationDecision> ClassifyBatch(
    std::vector<Cluster>& clusters, std::span<const Vector> points,
    std::span<const double> scores, const ClassifierOptions& options) {
  QCLUSTER_CHECK(points.size() == scores.size());
  QCLUSTER_TRACE_SPAN(span, "classifier.batch");
  span.AddAttr("points", points.size());
  span.AddAttr("clusters_in", clusters.size());
  MetricAdd("classifier.points", static_cast<long long>(points.size()));
  std::vector<ClassificationDecision> decisions;
  decisions.reserve(points.size());
  // Taken at the first point Algorithm 2 classifies; a batch that only
  // starts the first cluster inverts no CDF.
  std::optional<double> radius;
  for (std::size_t i = 0; i < points.size(); ++i) {
    QCLUSTER_CHECK(scores[i] > 0.0);
    if (clusters.empty()) {
      clusters.push_back(Cluster::FromPoint(points[i], scores[i]));
      MetricAdd("classifier.new_clusters");
      ClassificationDecision d;
      d.cluster = 0;
      decisions.push_back(d);
      continue;
    }
    if (!radius) radius = EffectiveRadius(clusters, options);
    ClassificationDecision d =
        ClassifyWithin(clusters, points[i], options, *radius);
    if (d.cluster >= 0) {
      clusters[static_cast<std::size_t>(d.cluster)].Add(points[i], scores[i]);
      MetricAdd("classifier.assigned");
    } else {
      clusters.push_back(Cluster::FromPoint(points[i], scores[i]));
      MetricAdd("classifier.new_clusters");
    }
    decisions.push_back(d);
  }
  return decisions;
}

}  // namespace qcluster::core
