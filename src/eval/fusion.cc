#include "eval/fusion.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/check.h"

namespace qcluster::eval {
namespace {

std::vector<index::Neighbor> SortAndTruncate(
    std::unordered_map<int, double>& scores, int k) {
  std::vector<index::Neighbor> fused;
  fused.reserve(scores.size());
  for (const auto& [id, score] : scores) {
    fused.push_back(index::Neighbor{id, score});
  }
  std::sort(fused.begin(), fused.end(), index::NeighborOrder{});
  if (static_cast<int>(fused.size()) > k) {
    fused.resize(static_cast<std::size_t>(k));
  }
  return fused;
}

}  // namespace

std::vector<index::Neighbor> ReciprocalRankFusion(
    const std::vector<std::vector<index::Neighbor>>& lists,
    const std::vector<double>& weights, int k, double k0) {
  QCLUSTER_CHECK(lists.size() == weights.size());
  QCLUSTER_CHECK(!lists.empty());
  QCLUSTER_CHECK(k > 0);
  QCLUSTER_CHECK(k0 > 0.0);
  std::unordered_map<int, double> scores;
  for (std::size_t l = 0; l < lists.size(); ++l) {
    QCLUSTER_CHECK(weights[l] >= 0.0);
    for (std::size_t r = 0; r < lists[l].size(); ++r) {
      // Negative: the sort treats smaller as better.
      scores[lists[l][r].id] -=
          weights[l] / (k0 + static_cast<double>(r + 1));
    }
  }
  return SortAndTruncate(scores, k);
}

std::vector<index::Neighbor> WeightedScoreFusion(
    const std::vector<std::vector<index::Neighbor>>& lists,
    const std::vector<double>& weights, int k) {
  QCLUSTER_CHECK(lists.size() == weights.size());
  QCLUSTER_CHECK(!lists.empty());
  QCLUSTER_CHECK(k > 0);

  // Per-list min-max normalization bounds.
  std::vector<double> lo(lists.size()), hi(lists.size());
  for (std::size_t l = 0; l < lists.size(); ++l) {
    lo[l] = std::numeric_limits<double>::infinity();
    hi[l] = -std::numeric_limits<double>::infinity();
    for (const index::Neighbor& n : lists[l]) {
      lo[l] = std::min(lo[l], n.distance);
      hi[l] = std::max(hi[l], n.distance);
    }
  }

  // Union of candidate ids; missing entries cost the list's maximum (1.0).
  std::unordered_map<int, double> scores;
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  QCLUSTER_CHECK(total_weight > 0.0);
  for (std::size_t l = 0; l < lists.size(); ++l) {
    for (const index::Neighbor& n : lists[l]) {
      scores.try_emplace(n.id, total_weight);  // Start at the worst case.
    }
  }
  for (std::size_t l = 0; l < lists.size(); ++l) {
    const double range = hi[l] - lo[l];
    for (const index::Neighbor& n : lists[l]) {
      const double norm = range > 0.0 ? (n.distance - lo[l]) / range : 0.0;
      // Replace this list's worst-case contribution with the actual one.
      scores[n.id] -= weights[l] * (1.0 - norm);
    }
  }
  return SortAndTruncate(scores, k);
}

}  // namespace qcluster::eval
