#include "core/closest_pair.h"

#include <numeric>
#include <utility>

#include "common/check.h"

namespace qcluster::core {

ClosestPairTable::ClosestPairTable(std::vector<Cluster>& clusters,
                                   Score score)
    : clusters_(clusters),
      score_(std::move(score)),
      n_(static_cast<int>(clusters.size())),
      slots_(clusters.size()),
      table_(static_cast<std::size_t>(static_cast<long long>(n_) * (n_ - 1) /
                                      2)) {
  std::iota(slots_.begin(), slots_.end(), 0);
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) ScorePair(i, j);
  }
}

long long ClosestPairTable::Row(int s) const {
  // s(2n − s − 1)/2 pairs precede row s, whose first column is s + 1.
  return static_cast<long long>(s) * (2 * n_ - s - 3) / 2 - 1;
}

void ClosestPairTable::ScorePair(int i, int j) {
  const std::size_t a = static_cast<std::size_t>(i);
  const std::size_t b = static_cast<std::size_t>(j);
  table_[static_cast<std::size_t>(Row(slots_[a]) + slots_[b])] =
      score_(clusters_[a], clusters_[b]);
  ++scores_;
}

ClosestPairTable::Pair ClosestPairTable::Closest() const {
  const int g = static_cast<int>(slots_.size());
  QCLUSTER_CHECK(g >= 2);
  Pair best;
  for (int i = 0; i < g; ++i) {
    const long long row = Row(slots_[static_cast<std::size_t>(i)]);
    for (int j = i + 1; j < g; ++j) {
      const double score = table_[static_cast<std::size_t>(
          row + slots_[static_cast<std::size_t>(j)])];
      if (score < best.score) best = {i, j, score};
    }
  }
  return best;
}

void ClosestPairTable::Merge(const Pair& pair) {
  const int i = pair.i;
  const int j = pair.j;
  QCLUSTER_CHECK(0 <= i && i < j &&
                 j < static_cast<int>(clusters_.size()));
  Cluster& merged = clusters_[static_cast<std::size_t>(i)];
  merged = Cluster::Merged(std::move(merged),
                           std::move(clusters_[static_cast<std::size_t>(j)]));
  clusters_.erase(clusters_.begin() + j);
  slots_.erase(slots_.begin() + j);
  const int g = static_cast<int>(clusters_.size());
  for (int k = 0; k < i; ++k) ScorePair(k, i);
  for (int k = i + 1; k < g; ++k) ScorePair(i, k);
}

}  // namespace qcluster::core
