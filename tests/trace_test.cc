#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "counting_new.h"
#include "index/br_tree.h"

namespace qcluster::trace {
namespace {

/// Every test owns the process-global tracing state for its duration:
/// enable + clean recorder on entry, disable + clean recorder on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(true);
    SetSlowRoundThresholdMs(0.0);
    TraceRecorder::Global().Reset();
  }
  void TearDown() override {
    SetTracingEnabled(false);
    SetSlowRoundThresholdMs(0.0);
    TraceRecorder::Global().Reset();
  }
};

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           const std::string& name) {
  for (const SpanRecord& rec : spans) {
    if (name == rec.name) return &rec;
  }
  return nullptr;
}

int CountSpans(const std::vector<SpanRecord>& spans, const std::string& name) {
  int count = 0;
  for (const SpanRecord& rec : spans) {
    if (name == rec.name) ++count;
  }
  return count;
}

TEST_F(TraceTest, NestedSpansRecordParentChainAndContext) {
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 3);
    ScopedSpan outer("test.outer");
    outer.AddAttr("k", 25);
    {
      ScopedSpan inner("test.inner");
      inner.AddAttr("ratio", 0.5);
      ScopedSpan leaf("test.leaf");
      EXPECT_NE(leaf.span_id(), 0u);
    }
  }
  const std::vector<SpanRecord> spans =
      TraceRecorder::Global().SpansForRound(trace_id, 3);
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord* outer = FindSpan(spans, "test.outer");
  const SpanRecord* inner = FindSpan(spans, "test.inner");
  const SpanRecord* leaf = FindSpan(spans, "test.leaf");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(leaf, nullptr);

  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(leaf->parent_id, inner->span_id);
  for (const SpanRecord& rec : spans) {
    EXPECT_EQ(rec.trace_id, trace_id);
    EXPECT_EQ(rec.round, 3);
    EXPECT_LE(rec.begin_ns, rec.end_ns);
  }
  ASSERT_EQ(outer->attr_count, 1);
  EXPECT_STREQ(outer->attr_keys[0], "k");
  EXPECT_EQ(outer->attr_values[0].kind, AttrValue::Kind::kInt);
  EXPECT_EQ(outer->attr_values[0].i, 25);
  ASSERT_EQ(inner->attr_count, 1);
  EXPECT_EQ(inner->attr_values[0].kind, AttrValue::Kind::kDouble);
  EXPECT_DOUBLE_EQ(inner->attr_values[0].d, 0.5);
}

TEST_F(TraceTest, SiblingSpansShareTheirParent) {
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 0);
    ScopedSpan parent("test.parent");
    { ScopedSpan first("test.first"); }
    { ScopedSpan second("test.second"); }
  }
  const std::vector<SpanRecord> spans =
      TraceRecorder::Global().SpansForRound(trace_id, 0);
  const SpanRecord* parent = FindSpan(spans, "test.parent");
  const SpanRecord* first = FindSpan(spans, "test.first");
  const SpanRecord* second = FindSpan(spans, "test.second");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->parent_id, parent->span_id);
  EXPECT_EQ(second->parent_id, parent->span_id);
  EXPECT_NE(first->span_id, second->span_id);
}

TEST_F(TraceTest, ParallelForShardSpansParentToSubmittingSpan) {
  ThreadPool pool(4);
  const std::uint64_t trace_id = NewTraceId();
  std::uint64_t submit_span_id = 0;
  {
    ScopedTraceContext round(trace_id, 1);
    ScopedSpan submit("test.submit");
    submit_span_id = submit.span_id();
    std::atomic<long long> total{0};
    pool.ParallelFor(4096, /*min_shard=*/64,
                     [&](int, std::size_t begin, std::size_t end) {
                       total.fetch_add(static_cast<long long>(end - begin),
                                       std::memory_order_relaxed);
                     });
    EXPECT_EQ(total.load(), 4096);
  }
  const std::vector<SpanRecord> spans =
      TraceRecorder::Global().SpansForRound(trace_id, 1);
  const int shard_spans = CountSpans(spans, "thread_pool.shard");
  EXPECT_EQ(shard_spans, pool.ShardCount(4096, 64));
  ASSERT_GE(shard_spans, 2) << "need real pool workers for this test";
  std::vector<int> shards_seen;
  for (const SpanRecord& rec : spans) {
    if (std::string("thread_pool.shard") != rec.name) continue;
    // Every shard span — including the ones recorded on pool worker
    // threads — is parented to the span active on the submitting thread
    // and inherits its (trace, round) context.
    EXPECT_EQ(rec.parent_id, submit_span_id);
    EXPECT_EQ(rec.trace_id, trace_id);
    EXPECT_EQ(rec.round, 1);
    ASSERT_GE(rec.attr_count, 1);
    EXPECT_STREQ(rec.attr_keys[0], "shard");
    shards_seen.push_back(static_cast<int>(rec.attr_values[0].i));
  }
  std::sort(shards_seen.begin(), shards_seen.end());
  for (int s = 0; s < shard_spans; ++s) {
    EXPECT_EQ(shards_seen[static_cast<std::size_t>(s)], s);
  }
}

TEST_F(TraceTest, WorkerThreadsRecordDistinctThreadIndexes) {
  ThreadPool pool(4);
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 1);
    ScopedSpan submit("test.submit");
    pool.ParallelFor(4096, /*min_shard=*/64,
                     [&](int, std::size_t, std::size_t) {});
  }
  const std::vector<SpanRecord> spans =
      TraceRecorder::Global().SpansForRound(trace_id, 1);
  const SpanRecord* submit = FindSpan(spans, "test.submit");
  ASSERT_NE(submit, nullptr);
  bool saw_other_thread = false;
  for (const SpanRecord& rec : spans) {
    if (std::string("thread_pool.shard") != rec.name) continue;
    if (rec.thread_index != submit->thread_index) saw_other_thread = true;
  }
  EXPECT_TRUE(saw_other_thread)
      << "expected at least one shard span from a pool worker thread";
}

TEST_F(TraceTest, RingOverflowDropsOldestAndCountsWithoutBlocking) {
  const std::uint64_t trace_id = NewTraceId();
  constexpr int kSpans = internal::ThreadBuffer::kCapacity + 500;
  {
    ScopedTraceContext round(trace_id, 0);
    for (int i = 0; i < kSpans; ++i) {
      ScopedSpan span("test.flood");
      span.AddAttr("i", i);
    }
  }
  // The ScopedTraceContext destructor drains, so the retained set holds
  // exactly one ring's worth of flood spans (the newest), and the overflow
  // is accounted in dropped().
  const std::vector<SpanRecord> spans =
      TraceRecorder::Global().SpansForRound(trace_id, 0);
  EXPECT_EQ(CountSpans(spans, "test.flood"),
            internal::ThreadBuffer::kCapacity);
  EXPECT_GE(TraceRecorder::Global().dropped(),
            static_cast<long long>(kSpans) -
                internal::ThreadBuffer::kCapacity);
  // Oldest dropped, newest kept: the surviving "i" attributes are the tail.
  long long min_i = kSpans;
  for (const SpanRecord& rec : spans) {
    if (std::string("test.flood") == rec.name && rec.attr_count == 1) {
      min_i = std::min(min_i, rec.attr_values[0].i);
    }
  }
  EXPECT_EQ(min_i, kSpans - internal::ThreadBuffer::kCapacity);
}

TEST_F(TraceTest, DisabledSpansAllocateNothing) {
  SetTracingEnabled(false);
  SetMetricsEnabled(false);
  TraceRecorder::Global().Reset();
  // Warm the code paths once so lazy one-time setup (thread-local buffer
  // registration while enabled earlier, gtest bookkeeping) is out of the
  // measured window.
  {
    ScopedSpan warm("test.warm");
    warm.AddAttr("k", 1);
  }
  const long long before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    ScopedTraceContext round(std::uint64_t{7}, i);
    ScopedSpan span("test.disabled");
    span.AddAttr("k", i);
    span.AddAttr("ratio", 0.25);
    span.AddAttr("index", "linear_scan");
  }
  const long long after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled tracing must not allocate";
  EXPECT_TRUE(TraceRecorder::Global().Snapshot().empty());
}

TEST_F(TraceTest, SpanFeedsItsHistogramWithTheTracedDuration) {
  // With tracing and metrics both on, one pair of clock reads serves both:
  // the histogram holds exactly the recorded span's duration.
  MetricsRegistry::Global().Reset();
  SetMetricsEnabled(true);
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 0);
    ScopedSpan span("test.timed");
  }
  SetMetricsEnabled(false);
  const std::vector<SpanRecord> spans =
      TraceRecorder::Global().SpansForRound(trace_id, 0);
  ASSERT_EQ(spans.size(), 1u);
  const auto snap = MetricsRegistry::Global().HistogramSnapshot("test.timed");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->count, 1);
  EXPECT_EQ(snap->sum,
            static_cast<double>(spans[0].end_ns - spans[0].begin_ns) * 1e-9);
  MetricsRegistry::Global().Reset();
}

TEST_F(TraceTest, AttrsBeyondCapacityAreSilentlyDropped) {
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 0);
    ScopedSpan span("test.attrs");
    for (int i = 0; i < SpanRecord::kMaxAttrs + 4; ++i) {
      span.AddAttr("key", i);
    }
  }
  const std::vector<SpanRecord> spans =
      TraceRecorder::Global().SpansForRound(trace_id, 0);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].attr_count, SpanRecord::kMaxAttrs);
  EXPECT_EQ(spans[0].attr_values[SpanRecord::kMaxAttrs - 1].i,
            SpanRecord::kMaxAttrs - 1);
}

TEST_F(TraceTest, ChromeTraceJsonIsWellFormedAndDeterministic) {
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 2);
    ScopedSpan outer("phase.outer");
    outer.AddAttr("k", 10);
    outer.AddAttr("index", "va_file");
    ScopedSpan inner("phase.inner");
    inner.AddAttr("ratio", 0.125);
  }
  const std::string json = TraceRecorder::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"index\": \"va_file\""), std::string::npos);
  EXPECT_NE(json.find("\"ratio\": 0.125"), std::string::npos);
  // Serializing the same retained set twice is byte-identical.
  EXPECT_EQ(json, TraceRecorder::Global().ToChromeTraceJson());
}

TEST_F(TraceTest, NonFiniteAttributesExportAsNull) {
  // A warm search over rows with no finite distance records θ₀ ÷ (k-th
  // distance) = ∞ ÷ ∞; the JSON export must stay parseable.
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 1);
    ScopedSpan span("phase.nonfinite");
    span.AddAttr("ratio", std::numeric_limits<double>::quiet_NaN());
    span.AddAttr("bound", std::numeric_limits<double>::infinity());
    span.AddAttr("floor", -std::numeric_limits<double>::infinity());
  }
  const std::string json = TraceRecorder::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("\"ratio\": null, \"bound\": null, \"floor\": null"),
            std::string::npos)
      << json;
  // The text tree keeps the readable spelling.
  const std::string tree = TraceRecorder::FormatSpanTree(
      TraceRecorder::Global().SpansForRound(trace_id, 1));
  EXPECT_NE(tree.find("ratio=nan bound=inf floor=-inf"), std::string::npos)
      << tree;
}

TEST_F(TraceTest, ResetClearsRetainedSpansAndDroppedCounters) {
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 0);
    for (int i = 0; i < internal::ThreadBuffer::kCapacity + 10; ++i) {
      ScopedSpan span("test.reset");
    }
  }
  EXPECT_FALSE(TraceRecorder::Global().Snapshot().empty());
  EXPECT_GT(TraceRecorder::Global().dropped(), 0);
  TraceRecorder::Global().Reset();
  EXPECT_TRUE(TraceRecorder::Global().Snapshot().empty());
  EXPECT_EQ(TraceRecorder::Global().dropped(), 0);
}

TEST_F(TraceTest, RoundSummaryNamesPhasesAndTotal) {
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 4);
    ScopedSpan total("feedback.total");
    ScopedSpan classify("feedback.classify");
  }
  const std::string summary =
      TraceRecorder::Global().RoundSummary(trace_id, 4);
  EXPECT_NE(summary.find("round=4"), std::string::npos);
  EXPECT_NE(summary.find("total="), std::string::npos);
  EXPECT_NE(summary.find("feedback.total="), std::string::npos);
  EXPECT_NE(summary.find("feedback.classify="), std::string::npos);
  EXPECT_NE(summary.find("spans=2"), std::string::npos);
}

TEST_F(TraceTest, SpansForRoundSinceAMarkSkipsSpansRetainedBefore) {
  // A round's end reads from the mark its context took when it opened, so
  // spans retained earlier are not scanned; without a mark SpansForRound
  // reads the whole retained set.
  const std::uint64_t trace_id = NewTraceId();
  {
    ScopedTraceContext round(trace_id, 2);
    ScopedSpan span("test.before");
  }
  TraceRecorder::Global().Drain();
  const std::uint64_t mark = TraceRecorder::Global().Mark();
  {
    ScopedTraceContext round(trace_id, 2);
    ScopedSpan span("test.after");
  }
  const std::vector<SpanRecord> since =
      TraceRecorder::Global().SpansForRound(trace_id, 2, mark);
  ASSERT_EQ(since.size(), 1u);
  EXPECT_STREQ(since[0].name, "test.after");
  EXPECT_EQ(TraceRecorder::Global().SpansForRound(trace_id, 2).size(), 2u);
}

TEST_F(TraceTest, SlowRoundDumpsSpanTreeToStderr) {
  SetSlowRoundThresholdMs(1e-9);  // Every round is "slow".
  const std::uint64_t trace_id = NewTraceId();
  ::testing::internal::CaptureStderr();
  {
    ScopedTraceContext round(trace_id, 5);
    ScopedSpan span("test.slow_phase");
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SLOW round"), std::string::npos);
  EXPECT_NE(err.find("QCLUSTER_SLOW_MS"), std::string::npos);
  EXPECT_NE(err.find("test.slow_phase"), std::string::npos);
}

/// End-to-end: a feedback round of an engine-driven session produces the
/// span tree the observability docs promise — feedback.total →
/// {classify, merge, knn_query} → index internals — all on one trace id.
TEST_F(TraceTest, SessionFeedbackRoundProducesNestedSpanTree) {
  Rng rng(991);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(linalg::Scale(rng.GaussianVector(2), 0.4));
    rows.push_back(
        linalg::Add(linalg::Scale(rng.GaussianVector(2), 0.4), {3.0, 3.0}));
  }
  for (int i = 0; i < 120; ++i) {
    rows.push_back({rng.Uniform(-4.0, 7.0), rng.Uniform(-4.0, 7.0)});
  }
  const linalg::FlatBlock points = linalg::FlatBlock::FromPoints(rows);
  const index::BrTree tree(&points);
  core::QclusterOptions opt;
  opt.k = 50;
  core::QclusterEngine engine(&points, &tree, opt);
  engine.InitialQuery(points[0]);
  engine.Feedback({{0, 1.0}, {2, 1.0}, {4, 1.0}});

  const std::vector<SpanRecord> all = TraceRecorder::Global().Snapshot();
  const SpanRecord* total = FindSpan(all, "feedback.total");
  ASSERT_NE(total, nullptr);
  const std::uint64_t trace_id = total->trace_id;
  EXPECT_NE(trace_id, 0u);
  EXPECT_EQ(total->round, 1);
  EXPECT_EQ(total->parent_id, 0u);

  const std::vector<SpanRecord> spans =
      TraceRecorder::Global().SpansForRound(trace_id, 1);
  const SpanRecord* classify = FindSpan(spans, "feedback.classify");
  const SpanRecord* merge = FindSpan(spans, "feedback.merge");
  const SpanRecord* knn = FindSpan(spans, "feedback.knn_query");
  const SpanRecord* index_span = FindSpan(spans, "index.br_tree.search");
  ASSERT_NE(classify, nullptr);
  ASSERT_NE(merge, nullptr);
  ASSERT_NE(knn, nullptr);
  ASSERT_NE(index_span, nullptr);

  EXPECT_EQ(classify->parent_id, total->span_id);
  EXPECT_EQ(merge->parent_id, total->span_id);
  EXPECT_EQ(knn->parent_id, total->span_id);
  EXPECT_EQ(index_span->parent_id, knn->span_id);
  for (const SpanRecord& rec : spans) {
    EXPECT_EQ(rec.trace_id, trace_id);
    EXPECT_EQ(rec.round, 1);
  }
  // Round 0 (the initial query) recorded under the same trace.
  const std::vector<SpanRecord> start =
      TraceRecorder::Global().SpansForRound(trace_id, 0);
  EXPECT_NE(FindSpan(start, "engine.initial_query"), nullptr);
}

}  // namespace
}  // namespace qcluster::trace
