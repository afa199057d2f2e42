#ifndef QCLUSTER_COMMON_THREAD_POOL_H_
#define QCLUSTER_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace qcluster {

/// A fixed-size pool of worker threads for row-independent loops.
///
/// Callers split a row range into contiguous shards and give each shard
/// its own output: the k-NN scan scores each shard into its own bounded
/// top-k heap and merges the heaps on the calling thread; ingest
/// (dataset::FeatureDatabase) writes each image's features, standardized
/// row and projection into its own pre-sized slot. Shard *boundaries*
/// depend only on (n, min_shard, thread_count), never on scheduling, and
/// every row is computed independently — so results are bit-identical at
/// any thread count.
///
/// A pool of size 1 owns no worker threads at all: ParallelFor runs the
/// single shard inline on the caller, giving a fully serial, deterministic
/// execution for debugging (`QCLUSTER_THREADS=1`).
///
/// Nesting: a ParallelFor issued from inside a pool task, on any pool's
/// worker thread, runs all its shards inline on that worker, in shard
/// order, with the boundaries a parallel run would use. A nested loop
/// therefore never waits on workers that may all be waiting too, and its
/// results do not change.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining thread).
  /// Values below 1 are clamped to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency, including the calling thread.
  int thread_count() const { return threads_; }

  /// Number of shards ParallelFor uses for `n` items: at most
  /// thread_count(), and never so many that a shard holds fewer than
  /// `min_shard` items (small inputs stay single-sharded — the parallel
  /// bookkeeping would cost more than it saves).
  [[nodiscard]] int ShardCount(std::size_t n, std::size_t min_shard) const;

  /// Splits [0, n) into ShardCount contiguous equal shards and runs
  /// `fn(shard, begin, end)` for each, blocking until all complete. Shard 0
  /// runs on the calling thread, the rest on pool workers (all of them on
  /// the caller when it is itself a pool worker; see the class comment).
  /// `fn` must be safe to invoke concurrently and must not throw.
  void ParallelFor(std::size_t n, std::size_t min_shard,
                   const std::function<void(int, std::size_t, std::size_t)>&
                       fn);

  /// The process-wide pool every index uses by default, sized by the
  /// QCLUSTER_THREADS environment variable at first use (default:
  /// std::thread::hardware_concurrency, 1 = fully serial).
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  const int threads_;
  // qlint: unguarded(ctor-filled before any worker runs; joined in dtor)
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ QCLUSTER_GUARDED_BY(mu_);
  bool stop_ QCLUSTER_GUARDED_BY(mu_) = false;
};

namespace internal {

/// QCLUSTER_THREADS parsing, exposed for tests: a positive integer wins
/// (capped at 256); anything else falls back to hardware_concurrency
/// (minimum 1).
int ParseThreadCount(const char* env);

}  // namespace internal
}  // namespace qcluster

#endif  // QCLUSTER_COMMON_THREAD_POOL_H_
