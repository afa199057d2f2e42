// Thread pool semantics plus the determinism guarantee of the parallel
// k-NN scan: any thread count must produce identical results, including
// tie-breaking by id.

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/disjunctive_distance.h"
#include "index/linear_scan.h"

namespace qcluster {
namespace {

using index::BoundedTopK;
using index::EuclideanDistance;
using index::LinearScanIndex;
using index::Neighbor;
using index::TopK;
using linalg::Vector;

TEST(ThreadPoolTest, ParseThreadCount) {
  EXPECT_EQ(internal::ParseThreadCount("1"), 1);
  EXPECT_EQ(internal::ParseThreadCount("8"), 8);
  EXPECT_EQ(internal::ParseThreadCount("999"), 256);  // Capped.
  EXPECT_GE(internal::ParseThreadCount(nullptr), 1);  // hardware_concurrency.
  EXPECT_GE(internal::ParseThreadCount(""), 1);
  EXPECT_GE(internal::ParseThreadCount("0"), 1);
  EXPECT_GE(internal::ParseThreadCount("bogus"), 1);
}

TEST(ThreadPoolTest, SerialPoolHasNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  EXPECT_EQ(pool.ShardCount(1'000'000, 1), 1);
}

TEST(ThreadPoolTest, ShardCountRespectsMinShard) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.ShardCount(100, 1024), 1);    // Too small to split.
  EXPECT_EQ(pool.ShardCount(2048, 1024), 2);   // Two full shards.
  EXPECT_EQ(pool.ShardCount(100'000, 1024), 8);  // Capped by threads.
  EXPECT_EQ(pool.ShardCount(0, 1024), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 5}) {
    ThreadPool pool(threads);
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{1000},
                          std::size_t{4096}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, 16, [&](int /*shard*/, std::size_t begin,
                                  std::size_t end) {
        ASSERT_LE(begin, end);
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForRunsShardsConcurrentlyButBlocksUntilDone) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.ParallelFor(4000, 1, [&](int, std::size_t begin, std::size_t end) {
    sum.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(sum.load(), 4000);  // Fully accumulated when the call returns.
}

TEST(ThreadPoolTest, NestedParallelForOnAWorkerRunsInline) {
  // Every outer shard issues an inner loop on the same pool. If workers
  // queued their inner shards, all three would wait on tasks that no free
  // worker is left to run; on a worker the inner loop runs inline instead.
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 1000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, 1, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t outer = begin; outer < end; ++outer) {
      pool.ParallelFor(kInner, 1, [&](int, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          hits[outer * kInner + i].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(BoundedTopKTest, KeepsKClosestWithIdTieBreak) {
  BoundedTopK top(3);
  top.Push({5, 2.0});
  top.Push({1, 1.0});
  top.Push({9, 3.0});
  top.Push({2, 1.0});  // Ties with id 1; id 2 beats id 9's distance 3.
  top.Push({7, 9.0});  // Worse than everything retained.
  const std::vector<Neighbor> got = std::move(top).TakeSorted();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 1);
  EXPECT_EQ(got[1].id, 2);
  EXPECT_EQ(got[2].id, 5);
}

TEST(TopKTest, TieBreakAtTheBoundaryIsById) {
  // Five candidates share the cut-off distance; TopK must keep the lowest
  // ids, in order, regardless of the input permutation.
  std::vector<Neighbor> all{{40, 2.0}, {10, 2.0}, {30, 2.0},
                            {20, 2.0}, {50, 2.0}, {5, 1.0}};
  const std::vector<Neighbor> top = TopK(all, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 5);
  EXPECT_EQ(top[1].id, 10);
  EXPECT_EQ(top[2].id, 20);
}

std::vector<Vector> TiedPoints(int n, int dim, Rng& rng) {
  // Points drawn from a tiny set of distinct locations so distance ties
  // (including across shard boundaries) are plentiful.
  std::vector<Vector> base;
  for (int i = 0; i < 7; ++i) base.push_back(rng.GaussianVector(dim));
  std::vector<Vector> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back(base[static_cast<std::size_t>(i % 7)]);
  }
  return pts;
}

core::DisjunctiveDistance MakeDisjunctive(const std::vector<Vector>& pts) {
  std::vector<core::Cluster> clusters;
  for (int c = 0; c < 2; ++c) {
    core::Cluster cluster(static_cast<int>(pts.front().size()));
    for (int i = 0; i < 10; ++i) {
      cluster.Add(pts[static_cast<std::size_t>(c * 100 + i)], 1.0);
    }
    clusters.push_back(std::move(cluster));
  }
  return core::DisjunctiveDistance(clusters,
                                   stats::CovarianceScheme::kDiagonal, 1e-4);
}

TEST(ParallelScanDeterminismTest, LinearScanIdenticalAcrossThreadCounts) {
  Rng rng(511);
  const std::vector<Vector> pts = TiedPoints(6000, 3, rng);
  const linalg::FlatBlock block = linalg::FlatBlock::FromPoints(pts);
  ThreadPool serial(1);
  ThreadPool parallel(8);
  const LinearScanIndex scan1(block.view(), &serial);
  const LinearScanIndex scan8(block.view(), &parallel);
  const auto disjunctive = MakeDisjunctive(pts);
  for (int q = 0; q < 5; ++q) {
    const EuclideanDistance euclid(rng.GaussianVector(3));
    // k = 50 cuts inside a tie group (~857 copies of each base point).
    EXPECT_EQ(scan1.Search(euclid, 50), scan8.Search(euclid, 50));
    EXPECT_EQ(scan1.Search(disjunctive, 50), scan8.Search(disjunctive, 50));
  }
}

TEST(ParallelScanDeterminismTest, ParallelMatchesSequentialReference) {
  // The sharded scan must agree with a plain sequential scoring loop.
  Rng rng(513);
  std::vector<Vector> pts;
  for (int i = 0; i < 5000; ++i) pts.push_back(rng.GaussianVector(4));
  const linalg::FlatBlock block = linalg::FlatBlock::FromPoints(pts);
  ThreadPool parallel(6);
  const LinearScanIndex scan(block.view(), &parallel);
  const EuclideanDistance d(rng.GaussianVector(4));
  std::vector<Neighbor> reference;
  reference.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    reference.push_back(Neighbor{static_cast<int>(i), d.Distance(pts[i])});
  }
  EXPECT_EQ(scan.Search(d, 40), TopK(std::move(reference), 40));
}

TEST(LinearScanFlatViewTest, ZeroCopyConstructorMatchesPacked) {
  // An index over a window of a larger block reads those rows in place and
  // answers exactly like one over a packed copy of just them.
  Rng rng(514);
  std::vector<Vector> pts;
  for (int i = 0; i < 3500; ++i) pts.push_back(rng.GaussianVector(3));
  const linalg::FlatBlock block = linalg::FlatBlock::FromPoints(pts);
  const linalg::FlatBlock copy = linalg::FlatBlock::FromPoints(
      std::vector<Vector>(pts.begin() + 500, pts.end()));
  ThreadPool pool(3);
  const LinearScanIndex packed(copy.view(), &pool);
  const LinearScanIndex zero_copy(block.view().Slice(500, 3500), &pool);
  EXPECT_EQ(zero_copy.size(), 3000);
  const EuclideanDistance d(rng.GaussianVector(3));
  EXPECT_EQ(packed.Search(d, 10), zero_copy.Search(d, 10));
}

}  // namespace
}  // namespace qcluster
