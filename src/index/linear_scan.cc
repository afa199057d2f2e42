#include "index/linear_scan.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/invariants.h"
#include "linalg/simd.h"

namespace qcluster::index {

namespace {

/// Minimum points per shard: below this the per-shard bookkeeping (heap,
/// scores buffer, task hand-off) outweighs the scan itself.
constexpr std::size_t kMinShardPoints = 1024;

}  // namespace

LinearScanIndex::LinearScanIndex(linalg::FlatView view, ThreadPool* pool)
    : view_(view), pool_(pool) {}

std::vector<Neighbor> LinearScanIndex::Search(const DistanceFunction& dist,
                                              int k, SearchStats* stats) const {
  return SearchImpl(dist, k, /*seed=*/nullptr, /*rejected_out=*/nullptr, stats);
}

std::vector<Neighbor> LinearScanIndex::SearchUncached(
    const DistanceFunction& dist, int k, WarmStart& warm,
    SearchStats* stats) const {
  const WarmStart::Seed seed = warm.Reseed(dist, k, serial(), view_);
  long long rejected = 0;
  std::vector<Neighbor> result =
      SearchImpl(dist, k, seed.valid() ? &seed : nullptr, &rejected, stats);
  if (seed.valid() && MetricsEnabled()) {
    // `hits`: scans run with a finite θ₀; `seed_theta_ratio`: θ₀ ÷ the final
    // k-th distance (≥ 1; 1.0 = a perfectly tight certificate);
    // `pruned_frac`: the fraction of the database θ₀ kept out of the heaps.
    MetricAdd("index.linear_scan.warm.hits");
    if (!result.empty() && result.back().distance > 0.0) {
      MetricRecord("index.linear_scan.warm.seed_theta_ratio",
                   seed.theta0 / result.back().distance);
    }
    if (view_.n > 0) {
      MetricRecord("index.linear_scan.warm.pruned_frac",
                   static_cast<double>(rejected) /
                       static_cast<double>(view_.n));
    }
  }
  return result;
}

std::vector<Neighbor> LinearScanIndex::SearchImpl(
    const DistanceFunction& dist, int k, const WarmStart::Seed* seed,
    long long* rejected_out, SearchStats* stats) const {
  QCLUSTER_CHECK(k > 0);
  QCLUSTER_TRACE_SPAN(span, "index.linear_scan.search");
  span.AddAttr("index", "linear_scan");
  span.AddAttr("k", k);
  span.AddAttr("n", view_.n);
  span.AddAttr("warm", seed != nullptr ? 1 : 0);

  const std::size_t n = view_.n;
  // θ₀ from the warm seed: an exact upper bound on the final k-th distance.
  // Any point scoring strictly above it cannot enter the merged top-k, so
  // rejecting it before heap admission never changes the result; ties at θ₀
  // are still offered. +inf on the cold path keeps one code path.
  const double theta0 = seed != nullptr
                            ? seed->theta0
                            : std::numeric_limits<double>::infinity();
  std::vector<Neighbor> merged;
  int shards = 0;
  long long rejected = 0;
  if (n > 0) {
    QCLUSTER_CHECK(dist.dim() == view_.dim);
    ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::Global();
    shards = pool.ShardCount(n, kMinShardPoints);
    std::vector<std::vector<Neighbor>> shard_top(
        static_cast<std::size_t>(shards));
    std::vector<long long> shard_rejected(static_cast<std::size_t>(shards), 0);
    pool.ParallelFor(
        n, kMinShardPoints,
        [&](int shard, std::size_t begin, std::size_t end) {
          // Reused across searches: one scratch buffer per pool thread, so
          // the steady-state scan allocates nothing per shard.
          static thread_local std::vector<double> scores;
          scores.resize(end - begin);
          dist.DistanceBatch(view_.Slice(begin, end), scores.data());
          BoundedTopK top(k);
          long long skipped = 0;
          for (std::size_t j = 0; j < scores.size(); ++j) {
            if (scores[j] > theta0) {
              ++skipped;
              continue;
            }
            top.Push(Neighbor{static_cast<int>(begin + j), scores[j]});
          }
          shard_rejected[static_cast<std::size_t>(shard)] = skipped;
          shard_top[static_cast<std::size_t>(shard)] =
              std::move(top).TakeSorted();
          QCLUSTER_AUDIT(core::ValidateSortedNeighbors(
              shard_top[static_cast<std::size_t>(shard)],
              "linear_scan shard top-k"));
        });
    // Each global top-k member is inside its own shard's top-k, so merging
    // the (at most shards · k) survivors is exact.
    std::size_t total = 0;
    for (const auto& t : shard_top) total += t.size();
    merged.reserve(total);
    for (auto& t : shard_top) {
      merged.insert(merged.end(), t.begin(), t.end());
    }
    for (const long long r : shard_rejected) rejected += r;
  }
  if (rejected_out != nullptr) *rejected_out = rejected;

  span.AddAttr("shards", shards);
  SearchStats local;
  local.distance_evaluations =
      static_cast<long long>(n) + (seed != nullptr ? seed->evaluations : 0);
  FinishSearch("index.linear_scan", local, stats);
  if (n > 0 && MetricsEnabled()) {
    MetricGauge("index.linear_scan.batch.shards",
                static_cast<double>(shards));
    // Which SIMD tier scored this scan; tier choice never changes the
    // scores (linalg/simd.h), only their throughput.
    MetricGauge("simd.dispatch_tier",
                static_cast<double>(linalg::simd::ActiveTier()));
  }
  return TopK(std::move(merged), k);
}

std::vector<Neighbor> TopK(std::vector<Neighbor> all, int k) {
  if (static_cast<int>(all.size()) > k) {
    std::nth_element(all.begin(), all.begin() + k, all.end(), NeighborOrder{});
    all.resize(static_cast<std::size_t>(k));
  }
  std::sort(all.begin(), all.end(), NeighborOrder{});
  // Every index's final result funnels through here: the returned list must
  // be strictly ascending under NeighborOrder — the deterministic tie-break
  // contract of the sharded merge.
  QCLUSTER_AUDIT(core::ValidateSortedNeighbors(all, "TopK merged result"));
  return all;
}

}  // namespace qcluster::index
