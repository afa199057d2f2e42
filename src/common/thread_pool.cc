#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/check.h"
#include "common/trace.h"

namespace qcluster {

namespace internal {

int ParseThreadCount(const char* env) {
  if (env != nullptr && *env != '\0') {
    const int value = std::atoi(env);
    if (value >= 1) return std::min(value, 256);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace internal

namespace {

/// True on every pool's worker threads: a ParallelFor issued there runs
/// inline (see the class comment's nesting rule).
thread_local bool t_on_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

int ThreadPool::ShardCount(std::size_t n, std::size_t min_shard) const {
  if (n == 0) return 1;
  min_shard = std::max<std::size_t>(min_shard, 1);
  const std::size_t by_size = n / min_shard;  // Shards of >= min_shard items.
  const std::size_t shards =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), by_size);
  return static_cast<int>(std::max<std::size_t>(1, shards));
}

void ThreadPool::ParallelFor(
    std::size_t n, std::size_t min_shard,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const int shards = ShardCount(n, min_shard);
  const std::size_t chunk =
      (n + static_cast<std::size_t>(shards) - 1) /
      static_cast<std::size_t>(shards);
  if (shards == 1 || t_on_pool_worker) {
    // Serial: one shard, or a nested call on a worker whose siblings may
    // all be blocked the same way. Same shards, same order, this thread.
    for (int s = 0; s < shards; ++s) {
      const std::size_t begin = static_cast<std::size_t>(s) * chunk;
      const std::size_t end = std::min(n, begin + chunk);
      if (begin < end) fn(s, begin, end);
    }
    return;
  }

  struct Completion {
    Mutex mu;
    CondVar cv;
    int remaining QCLUSTER_GUARDED_BY(mu) = 0;
  } done;
  {
    MutexLock lock(done.mu);
    done.remaining = shards - 1;
  }

  // Workers record their shard spans against the submitting thread's trace
  // context, parented to the span active here at submission time.
  const trace::PropagatedContext trace_ctx = trace::CaptureContext();
  {
    MutexLock lock(mu_);
    QCLUSTER_CHECK_MSG(!stop_, "ParallelFor on a destroyed pool");
    for (int s = 1; s < shards; ++s) {
      const std::size_t begin = static_cast<std::size_t>(s) * chunk;
      const std::size_t end = std::min(n, begin + chunk);
      queue_.push_back([&fn, &done, trace_ctx, s, begin, end] {
        {
          trace::ScopedWorkerSpan shard_span(trace_ctx, s);
          if (begin < end) fn(s, begin, end);
        }
        MutexLock done_lock(done.mu);
        if (--done.remaining == 0) done.cv.NotifyOne();
      });
    }
  }
  cv_.NotifyAll();
  {
    trace::ScopedWorkerSpan shard_span(trace_ctx, 0);
    fn(0, 0, std::min(n, chunk));
  }
  MutexLock lock(done.mu);
  while (done.remaining != 0) done.cv.Wait(done.mu);
}

ThreadPool& ThreadPool::Global() {
  // Leaked intentionally: worker threads must outlive every static-duration
  // index, and thread joins in static destructors are deadlock-prone. The
  // QCLUSTER_THREADS read is deliberately lazy rather than anchored in a
  // header: it runs at first pool use inside this function-local static, so
  // there is no static-init ordering for an anchor to fix, and an eager
  // header anchor would spin up workers in every binary linking this file.
  static ThreadPool* const pool = [] {
    // qlint: allow(env-hook): lazy, function-local static; no init hazard
    const char* const env = std::getenv("QCLUSTER_THREADS");
    return new ThreadPool(internal::ParseThreadCount(env));
  }();
  return *pool;
}

}  // namespace qcluster
