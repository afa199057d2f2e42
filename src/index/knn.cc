#include "index/knn.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "common/check.h"
#include "common/metrics.h"

namespace qcluster::index {

namespace {

/// Serial of the next index built; never reused, unlike an address.
std::atomic<std::uint64_t> next_serial{1};

/// Keeps the first entry of each id, in order: a repeated id would make θ₀,
/// the k-th smallest of the re-scored entries, undercut the true k-th
/// distance, and a reused answer repeat a point. O(size): the ids go into an
/// open-addressing table at most half full (Fibonacci hashing, linear
/// probing, -1 = empty), not a sort.
void KeepFirstPerId(std::vector<Neighbor>& entries) {
  int bits = 4;
  while ((std::size_t{1} << bits) < 2 * entries.size()) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  thread_local std::vector<int> table;
  table.assign(mask + 1, -1);
  std::size_t kept = 0;
  for (const Neighbor& n : entries) {
    const std::uint64_t key = static_cast<std::uint32_t>(n.id);
    std::size_t slot = (key * 0x9E3779B97F4A7C15ull) >> (64 - bits);
    while (table[slot] != -1 && table[slot] != n.id) slot = (slot + 1) & mask;
    if (table[slot] == n.id) continue;
    table[slot] = n.id;
    entries[kept++] = n;
  }
  entries.resize(kept);
}

}  // namespace

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

BoundedTopK::BoundedTopK(int k) : k_(static_cast<std::size_t>(k)) {
  QCLUSTER_CHECK(k > 0);
  heap_.reserve(k_);
}

std::vector<Neighbor> BoundedTopK::TakeSorted() && {
  std::sort_heap(heap_.begin(), heap_.end(), NeighborOrder{});
  return std::move(heap_);
}

void WarmStart::Clear() {
  owner_ = 0;
  k_ = 0;
  answer_.clear();
  key_.reset();
  pages_.clear();
}

void WarmStart::Adopt(std::uint64_t owner) {
  if (owner == owner_) return;
  Clear();
  owner_ = owner;
}

void WarmStart::Record(const DistanceFunction& dist, int k,
                       std::uint64_t owner,
                       const std::vector<Neighbor>& answer) {
  Adopt(owner);
  k_ = k;
  answer_ = answer;
  KeepFirstPerId(answer_);
  if (const QuadraticDecomposition* terms = dist.decomposition()) {
    key_ = *terms;
  } else {
    key_.reset();
  }
}

const std::vector<Neighbor>* WarmStart::Find(const DistanceFunction& dist,
                                             int k,
                                             std::uint64_t owner) const {
  const QuadraticDecomposition* terms = dist.decomposition();
  if (!key_ || owner != owner_ || k != k_ || terms == nullptr ||
      !(*terms == *key_)) {
    return nullptr;
  }
  return &answer_;
}

WarmStart::Seed WarmStart::Reseed(const DistanceFunction& dist, int k,
                                  std::uint64_t owner,
                                  const linalg::FlatView& rows) const {
  Seed seed;
  if (owner != owner_ || k <= 0 ||
      answer_.size() < static_cast<std::size_t>(k)) {
    return seed;
  }
  // One DistanceBatch call over the gathered rows — the same kernel (and
  // therefore the same bit-for-bit values) the cold scan uses.
  const std::size_t n = answer_.size();
  std::vector<int> ids(n);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = answer_[i].id;
  ScoreRows(dist, rows, ids.data(), n, scores.data());
  // θ₀ = k-th smallest re-scored distance under the NeighborOrder every
  // index uses, so the certificate is a value the cold path itself could
  // have produced.
  std::vector<Neighbor> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = Neighbor{ids[i], scores[i]};
  std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                   NeighborOrder{});
  seed.theta0 = order[static_cast<std::size_t>(k - 1)].distance;
  seed.evaluations = static_cast<long long>(n);
  return seed;
}

std::vector<int>& WarmStart::PagesOf(std::uint64_t owner) {
  Adopt(owner);
  return pages_;
}

KnnIndex::KnnIndex()
    : serial_(next_serial.fetch_add(1, std::memory_order_relaxed)) {}

std::vector<Neighbor> KnnIndex::SearchWarm(const DistanceFunction& dist, int k,
                                           WarmStart& warm,
                                           SearchStats* stats) const {
  // A recorded answer shorter than min(k, n) was not this index's answer
  // (Record dropped a repeated id), so it is searched for again.
  const std::vector<Neighbor>* answer = warm.Find(dist, k, serial_);
  if (answer != nullptr &&
      answer->size() == static_cast<std::size_t>(std::min(k, size()))) {
    MetricAdd("index.warm.reuses");
    return *answer;
  }
  std::vector<Neighbor> result = SearchUncached(dist, k, warm, stats);
  warm.Record(dist, k, serial_, result);
  return result;
}

std::vector<Neighbor> KnnIndex::SearchUncached(const DistanceFunction& dist,
                                               int k, WarmStart& warm,
                                               SearchStats* stats) const {
  (void)warm;
  return Search(dist, k, stats);
}

}  // namespace qcluster::index
