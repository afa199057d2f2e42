#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "index/br_tree.h"

namespace qcluster::trace {
namespace {

/// Many threads record spans through the same recorder while another thread
/// repeatedly drains and serializes — the interleaving QCLUSTER_TRACE runs
/// under when several sessions are live. Under TSan this locks in that the
/// per-thread rings, the registration list, and the retained set are
/// data-race free.
TEST(TraceStressTest, ConcurrentRecordingAndDraining) {
  SetTracingEnabled(true);
  TraceRecorder::Global().Reset();

  constexpr int kRecorders = 6;
  constexpr int kRounds = 40;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kRecorders + 1);
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([t] {
      const std::uint64_t trace_id = NewTraceId();
      for (int round = 0; round < kRounds; ++round) {
        ScopedTraceContext ctx(trace_id, round);
        ScopedSpan outer("stress.outer");
        outer.AddAttr("thread", t);
        for (int i = 0; i < 50; ++i) {
          ScopedSpan inner("stress.inner");
          inner.AddAttr("i", i);
        }
      }
    });
  }
  threads.emplace_back([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      TraceRecorder::Global().Drain();
      const std::string json = TraceRecorder::Global().ToChromeTraceJson();
      EXPECT_FALSE(json.empty());
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kRecorders; ++t) {
    threads[static_cast<std::size_t>(t)].join();
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();

  // Nothing was lost: every span either survived into the retained set or
  // is accounted for by the dropped counter.
  const std::vector<SpanRecord> spans = TraceRecorder::Global().Snapshot();
  const long long recorded =
      static_cast<long long>(spans.size()) + TraceRecorder::Global().dropped();
  EXPECT_GE(recorded, static_cast<long long>(kRecorders) * kRounds * 51);

  SetTracingEnabled(false);
  TraceRecorder::Global().Reset();
}

/// Full sessions tracing concurrently: each thread drives its own
/// QclusterEngine (which allocates its own trace id) over a shared index
/// while tracing is on the whole time and one thread polls round
/// summaries.
TEST(TraceStressTest, ConcurrentSessionsTraceSimultaneously) {
  SetTracingEnabled(true);
  TraceRecorder::Global().Reset();

  Rng rng(775);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(linalg::Scale(rng.GaussianVector(2), 0.4));
    rows.push_back(
        linalg::Add(linalg::Scale(rng.GaussianVector(2), 0.4), {3.0, 3.0}));
  }
  for (int i = 0; i < 160; ++i) {
    rows.push_back({rng.Uniform(-4.0, 7.0), rng.Uniform(-4.0, 7.0)});
  }
  const linalg::FlatBlock points = linalg::FlatBlock::FromPoints(rows);
  const index::BrTree tree(&points);

  constexpr int kSessions = 4;
  constexpr int kRounds = 3;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kSessions + 1);
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&points, &tree, t] {
      core::QclusterOptions opt;
      opt.k = 40;
      core::QclusterEngine engine(&points, &tree, opt);
      engine.InitialQuery(points[static_cast<std::size_t>(t)]);
      for (int round = 0; round < kRounds; ++round) {
        engine.Feedback({{2 * t, 1.0}, {2 * t + 2, 1.0}});
      }
    });
  }
  threads.emplace_back([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      // Wildcard round over a trace id that may or may not exist yet —
      // only the thread-safety matters here.
      (void)TraceRecorder::Global().SpansForRound(1, -1);
      (void)TraceRecorder::Global().RoundSummary(1, -1);
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kSessions; ++t) {
    threads[static_cast<std::size_t>(t)].join();
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();

  // Each session recorded its own trace with nested rounds.
  const std::vector<SpanRecord> spans = TraceRecorder::Global().Snapshot();
  std::vector<std::uint64_t> round_traces;
  for (const SpanRecord& rec : spans) {
    if (std::string("feedback.total") == rec.name) {
      round_traces.push_back(rec.trace_id);
    }
  }
  std::sort(round_traces.begin(), round_traces.end());
  round_traces.erase(std::unique(round_traces.begin(), round_traces.end()),
                     round_traces.end());
  EXPECT_EQ(round_traces.size(), static_cast<std::size_t>(kSessions));

  SetTracingEnabled(false);
  TraceRecorder::Global().Reset();
}

/// Tracing toggles on and off while spans are in flight: a span whose
/// construction saw "enabled" must finish recording cleanly even if the
/// switch flips before its destructor runs.
TEST(TraceStressTest, ToggleWhileRecording) {
  TraceRecorder::Global().Reset();
  constexpr int kWorkers = 4;
  constexpr int kIterations = 400;
  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  std::atomic<bool> stop{false};
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([t] {
      const std::uint64_t trace_id = NewTraceId();
      for (int i = 0; i < kIterations; ++i) {
        ScopedTraceContext ctx(trace_id, i);
        ScopedSpan span("toggle.span");
        span.AddAttr("worker", t);
      }
    });
  }
  threads.emplace_back([&stop] {
    bool on = false;
    while (!stop.load(std::memory_order_acquire)) {
      SetTracingEnabled(on = !on);
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kWorkers; ++t) {
    threads[static_cast<std::size_t>(t)].join();
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();

  SetTracingEnabled(false);
  TraceRecorder::Global().Reset();
}

}  // namespace
}  // namespace qcluster::trace
