#include "index/knn.h"

#include <algorithm>
#include <string>

#include "common/metrics.h"

namespace qcluster::index {

void FinishSearch(const char* index_name, const SearchStats& delta,
                  SearchStats* out) {
  if (out != nullptr) *out += delta;
  if (!MetricsEnabled()) return;
  const std::string prefix(index_name);
  MetricAdd(prefix + ".searches");
  MetricAdd(prefix + ".distance_evaluations", delta.distance_evaluations);
  MetricAdd(prefix + ".nodes_visited", delta.nodes_visited);
  MetricAdd(prefix + ".leaves_visited", delta.leaves_visited);
}

void ScoreRows(const DistanceFunction& dist, const linalg::FlatView& rows,
               const int* ids, std::size_t count, double* out) {
  const auto dim = static_cast<std::size_t>(rows.dim);
  thread_local linalg::AlignedBuffer gathered;
  gathered.resize(count * dim);
  for (std::size_t i = 0; i < count; ++i) {
    const double* src = rows.row(static_cast<std::size_t>(ids[i]));
    std::copy(src, src + dim, gathered.data() + i * dim);
  }
  dist.DistanceBatch(linalg::FlatView{gathered.data(), count, rows.dim}, out);
}

void WarmStart::Clear() {
  ids_.clear();
  distances_.clear();
  has_key_ = false;
  key_ = QuadraticDecomposition{};
  leaves_owner_ = 0;
  leaves_.clear();
}

void WarmStart::Record(const DistanceFunction& dist,
                       const std::vector<Neighbor>& scored) {
  ids_.clear();
  distances_.clear();
  ids_.reserve(scored.size());
  distances_.reserve(scored.size());
  for (const Neighbor& n : scored) {
    ids_.push_back(n.id);
    distances_.push_back(n.distance);
  }
  key_ = QuadraticDecomposition{};
  has_key_ = dist.Decompose(&key_);
  if (!has_key_) key_ = QuadraticDecomposition{};
  leaves_owner_ = 0;
  leaves_.clear();
}

std::vector<int> WarmStart::TakeLeaves(std::uint64_t owner) {
  std::vector<int> leaves = std::move(leaves_);
  leaves_.clear();
  if (owner != leaves_owner_) leaves.clear();
  leaves_owner_ = 0;
  return leaves;
}

void WarmStart::SetLeaves(std::uint64_t owner, std::vector<int> leaves) {
  leaves_owner_ = owner;
  leaves_ = std::move(leaves);
}

bool WarmStart::KeyMatches(const DistanceFunction& dist) const {
  if (!has_key_) return false;
  QuadraticDecomposition current;
  if (!dist.Decompose(&current)) return false;
  return key_ == current;
}

WarmStart::Seed WarmStart::SeedFromScores(int k, std::vector<Neighbor> scored,
                                          long long evals, bool reused) const {
  Seed seed;
  seed.scored = std::move(scored);
  seed.evaluations = evals;
  seed.reused = reused;
  // θ₀ = k-th smallest exact distance among the cached candidates, under
  // the NeighborOrder every index uses, so the certificate is a value the
  // cold path itself could have produced.
  std::vector<Neighbor> order = seed.scored;
  std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                   NeighborOrder{});
  seed.theta0 = order[k - 1].distance;
  return seed;
}

WarmStart::Seed WarmStart::Reseed(const DistanceFunction& dist, int k,
                                  const linalg::FlatView& rows) const {
  if (k <= 0 || static_cast<int>(ids_.size()) < k) return Seed{};
  std::vector<Neighbor> scored;
  scored.reserve(ids_.size());
  if (KeyMatches(dist)) {
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      scored.push_back(Neighbor{ids_[i], distances_[i]});
    }
    return SeedFromScores(k, std::move(scored), 0, /*reused=*/true);
  }
  // One DistanceBatch call over the gathered rows — the same kernel (and
  // therefore the same bit-for-bit values) the cold scan uses.
  thread_local std::vector<double> scores;
  scores.resize(ids_.size());
  ScoreRows(dist, rows, ids_.data(), ids_.size(), scores.data());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    scored.push_back(Neighbor{ids_[i], scores[i]});
  }
  return SeedFromScores(k, std::move(scored),
                        static_cast<long long>(ids_.size()),
                        /*reused=*/false);
}

void FinishWarmSearch(const char* index_name, const WarmStart::Seed& seed,
                      const std::vector<Neighbor>& result, double pruned_frac) {
  if (!seed.valid() || !MetricsEnabled()) return;
  const std::string prefix(index_name);
  MetricAdd(prefix + ".warm.hits");
  if (!result.empty() && result.back().distance > 0.0) {
    MetricRecord(prefix + ".warm.seed_theta_ratio",
                 seed.theta0 / result.back().distance);
  }
  if (pruned_frac >= 0.0) {
    MetricRecord(prefix + ".warm.pruned_frac", pruned_frac);
  }
}

std::vector<Neighbor> KnnIndex::SearchWarm(const DistanceFunction& dist, int k,
                                           WarmStart& warm,
                                           SearchStats* stats) const {
  std::vector<Neighbor> result = Search(dist, k, stats);
  warm.Record(dist, result);
  return result;
}

}  // namespace qcluster::index
