#include "common/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace.h"

namespace qcluster {
namespace {

/// Every test runs against the global registry; isolate them.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    SetMetricsEnabled(true);
  }
  void TearDown() override {
    SetMetricsEnabled(false);
    MetricsRegistry::Global().Reset();
  }
};

TEST_F(MetricsTest, CounterAccumulates) {
  MetricAdd("test.counter");
  MetricAdd("test.counter", 41);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("test.counter"), 42);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("never.touched"), 0);
}

TEST_F(MetricsTest, GaugeKeepsLastValue) {
  EXPECT_FALSE(
      MetricsRegistry::Global().GaugeValue("test.gauge").has_value());
  MetricGauge("test.gauge", 3.0);
  MetricGauge("test.gauge", 5.5);
  ASSERT_TRUE(MetricsRegistry::Global().GaugeValue("test.gauge").has_value());
  EXPECT_DOUBLE_EQ(*MetricsRegistry::Global().GaugeValue("test.gauge"), 5.5);
}

TEST_F(MetricsTest, HistogramTracksCountSumMinMax) {
  for (double v : {0.001, 0.002, 0.004, 0.008}) MetricRecord("test.h", v);
  const auto snap = MetricsRegistry::Global().HistogramSnapshot("test.h");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->count, 4);
  EXPECT_NEAR(snap->sum, 0.015, 1e-12);
  EXPECT_DOUBLE_EQ(snap->min, 0.001);
  EXPECT_DOUBLE_EQ(snap->max, 0.008);
}

TEST_F(MetricsTest, BucketEdgesAreMonotoneLogScale) {
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_GT(Histogram::BucketUpperEdge(i), Histogram::BucketUpperEdge(i - 1));
  }
  // One octave spans kBucketsPerOctave buckets.
  EXPECT_NEAR(Histogram::BucketUpperEdge(Histogram::kBucketsPerOctave - 1) /
                  Histogram::kMinValue,
              2.0, 1e-9);
  // Values land in the bucket whose upper edge bounds them.
  for (double v : {1e-8, 1e-6, 1e-3, 0.5, 1.0, 60.0}) {
    const int idx = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperEdge(idx) * (1 + 1e-12));
    if (idx > 0) {
      EXPECT_GT(v, Histogram::BucketUpperEdge(idx - 1) * (1 - 1e-12));
    }
  }
}

TEST_F(MetricsTest, PercentilesApproximateTheDistribution) {
  // 100 equally frequent values 1ms..100ms: p50 ≈ 50ms, p95 ≈ 95ms,
  // p99 ≈ 99ms. The log-bucket estimate is within one bucket ratio
  // (2^(1/4) ≈ 1.19) of the true quantile.
  for (int i = 1; i <= 100; ++i) {
    MetricRecord("test.p", 1e-3 * static_cast<double>(i));
  }
  const auto snap = MetricsRegistry::Global().HistogramSnapshot("test.p");
  ASSERT_TRUE(snap.has_value());
  const double ratio = 1.1892071150027210667;  // 2^(1/4)
  EXPECT_GE(snap->p50, 0.050 / ratio);
  EXPECT_LE(snap->p50, 0.050 * ratio);
  EXPECT_GE(snap->p95, 0.095 / ratio);
  EXPECT_LE(snap->p95, 0.095 * ratio);
  EXPECT_GE(snap->p99, 0.099 / ratio);
  EXPECT_LE(snap->p99, 0.099 * ratio);
  // Percentiles are ordered and inside the observed range.
  EXPECT_LE(snap->min, snap->p50);
  EXPECT_LE(snap->p50, snap->p95);
  EXPECT_LE(snap->p95, snap->p99);
  EXPECT_LE(snap->p99, snap->max);
}

TEST_F(MetricsTest, PercentilesInterpolateWithinBuckets) {
  // All 1000 samples land in one log bucket (edges grow by 2^(1/4), and
  // [0.90ms, 1.04ms] fits inside the (0.882ms, 1.049ms] bucket). The
  // log-space interpolation must spread the quantiles across the bucket
  // instead of answering one fixed midpoint — p50 < p95 < p99 strictly,
  // each within the observed range.
  for (int i = 0; i < 1000; ++i) {
    MetricRecord("test.interp", 0.90e-3 + 0.14e-3 * (i / 999.0));
  }
  const auto snap =
      MetricsRegistry::Global().HistogramSnapshot("test.interp");
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(Histogram::BucketIndex(snap->min),
            Histogram::BucketIndex(snap->max));
  EXPECT_LT(snap->p50, snap->p95);
  EXPECT_LT(snap->p95, snap->p99);
  EXPECT_GE(snap->p50, snap->min);
  EXPECT_LE(snap->p99, snap->max);
}

TEST_F(MetricsTest, PercentilesMatchExactQuantilesOnKnownDistributions) {
  // Exact-quantile comparison on deterministic distributions. The log
  // buckets resolve a factor of 2^(1/4) ≈ 1.19, and rank interpolation
  // recovers position inside the bucket, so the estimate must sit within
  // half a bucket ratio (≈ 1.09) of the true quantile — tighter than the
  // full bucket width the midpoint rule guaranteed.
  const double half_ratio = 1.0905077326652577;  // 2^(1/8)
  struct Case {
    const char* name;
    std::vector<double> values;
  };
  std::vector<Case> cases;
  // Uniform 1..1000 ms.
  cases.push_back({"test.exact.uniform", {}});
  for (int i = 1; i <= 1000; ++i) {
    cases.back().values.push_back(1e-3 * static_cast<double>(i));
  }
  // Geometric: value doubles every 100 samples (heavy right tail).
  cases.push_back({"test.exact.geometric", {}});
  for (int i = 0; i < 1000; ++i) {
    cases.back().values.push_back(1e-4 * std::exp2(i / 100.0));
  }
  // Bimodal: fast mode at ~1ms, slow mode at ~80ms.
  cases.push_back({"test.exact.bimodal", {}});
  for (int i = 0; i < 900; ++i) {
    cases.back().values.push_back(1e-3 + 1e-6 * static_cast<double>(i));
  }
  for (int i = 0; i < 100; ++i) {
    cases.back().values.push_back(80e-3 + 1e-5 * static_cast<double>(i));
  }

  for (const Case& c : cases) {
    for (double v : c.values) MetricRecord(c.name, v);
    std::vector<double> sorted = c.values;
    std::sort(sorted.begin(), sorted.end());
    const auto exact = [&sorted](double q) {
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(sorted.size())));
      return sorted[std::max<std::size_t>(rank, 1) - 1];
    };
    const auto snap = MetricsRegistry::Global().HistogramSnapshot(c.name);
    ASSERT_TRUE(snap.has_value()) << c.name;
    const std::vector<std::pair<double, double>> checks = {
        {exact(0.50), snap->p50},
        {exact(0.95), snap->p95},
        {exact(0.99), snap->p99},
    };
    for (const auto& [truth, estimate] : checks) {
      EXPECT_GE(estimate, truth / half_ratio) << c.name;
      EXPECT_LE(estimate, truth * half_ratio) << c.name;
    }
  }
}

TEST_F(MetricsTest, SamplesAboveTheTopBucketAreCountedAsOverflow) {
  EXPECT_EQ(Histogram::kMaxValue,
            Histogram::BucketUpperEdge(Histogram::kNumBuckets - 1));
  // All three land in the top bucket, so every percentile collapses to the
  // minimum; only the overflow count shows that.
  for (double v : {1e6, 1e7, 1e8}) MetricRecord("test.over", v);
  for (double v : {1e-3, Histogram::kMaxValue}) MetricRecord("test.in", v);
  const auto over = MetricsRegistry::Global().HistogramSnapshot("test.over");
  const auto in = MetricsRegistry::Global().HistogramSnapshot("test.in");
  ASSERT_TRUE(over.has_value());
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(over->overflow, 3);
  EXPECT_DOUBLE_EQ(over->p50, 1e6);
  EXPECT_DOUBLE_EQ(over->p99, 1e6);
  EXPECT_EQ(in->overflow, 0);
  const std::string json = MetricsRegistry::Global().ToJson();
  const auto field = [&json](const std::string& name) {
    const std::size_t at = json.find("\"" + name + "\": {");
    EXPECT_NE(at, std::string::npos) << name;
    const std::size_t end = json.find('}', at);
    return json.substr(at, end - at);
  };
  EXPECT_NE(field("test.over").find("\"overflow\": 3"), std::string::npos);
  EXPECT_NE(field("test.in").find("\"overflow\": 0"), std::string::npos);
}

TEST_F(MetricsTest, NanSamplesAreCountedApartFromTheStatistics) {
  // A NaN sample, even the first, must not seed min and max, land in
  // bucket 0 or poison the sum.
  for (double v : {std::nan(""), 3.0, 5.0}) MetricRecord("test.nan_first", v);
  MetricRecord("test.only_nan", std::nan(""));
  const auto snap =
      MetricsRegistry::Global().HistogramSnapshot("test.nan_first");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->nan, 1);
  EXPECT_EQ(snap->count, 2);
  EXPECT_DOUBLE_EQ(snap->sum, 8.0);
  EXPECT_DOUBLE_EQ(snap->min, 3.0);
  EXPECT_DOUBLE_EQ(snap->max, 5.0);
  EXPECT_GE(snap->p50, 3.0);
  EXPECT_LE(snap->p99, 5.0);
  // Nothing but NaN: exported like an empty histogram, plus the count.
  const auto only =
      MetricsRegistry::Global().HistogramSnapshot("test.only_nan");
  ASSERT_TRUE(only.has_value());
  EXPECT_EQ(only->nan, 1);
  EXPECT_EQ(only->count, 0);
  EXPECT_EQ(only->min, 0.0);
  EXPECT_EQ(only->max, 0.0);
  const std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"test.nan_first\": {\"count\": 2, \"sum\": 8, "
                      "\"min\": 3, \"max\": 5"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"overflow\": 0, \"nan\": 1}"), std::string::npos);
}

TEST_F(MetricsTest, NonFiniteNumbersExportAsNull) {
  // JSON has no NaN or infinity: %.9g's `nan` and `inf` would make the
  // export unparseable (Python's json rejects both).
  const double inf = std::numeric_limits<double>::infinity();
  MetricGauge("g.a", std::nan(""));
  MetricGauge("g.b", inf);
  MetricGauge("g.c", -inf);
  MetricGauge("g.d", 1.5);
  MetricRecord("h.pos", 2.0);
  MetricRecord("h.pos", inf);
  MetricRecord("h.neg", -inf);
  const std::string json = MetricsRegistry::Global().ToJson();
  for (const char* bad : {": nan", ": -nan", ": inf", ": -inf"}) {
    EXPECT_EQ(json.find(bad), std::string::npos) << bad << " in " << json;
  }
  for (const char* gauge : {"\"g.a\": null", "\"g.b\": null",
                            "\"g.c\": null", "\"g.d\": 1.5"}) {
    EXPECT_NE(json.find(gauge), std::string::npos) << gauge;
  }
  EXPECT_NE(json.find("\"h.pos\": {\"count\": 2, \"sum\": null, "
                      "\"min\": 2, \"max\": null"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"h.neg\": {\"count\": 1, \"sum\": null, "
                      "\"min\": null, \"max\": null"),
            std::string::npos)
      << json;
  const auto pos = MetricsRegistry::Global().HistogramSnapshot("h.pos");
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(pos->overflow, 1);  // +inf is above the top bucket.
}

TEST_F(MetricsTest, ConcurrentFirstSamplesKeepBothExtrema) {
  // Two threads race to record a fresh histogram's first samples; neither
  // may be lost from min or max.
  for (int trial = 0; trial < 200; ++trial) {
    Histogram h;
    std::atomic<int> ready{0};
    const auto record = [&h, &ready](double v) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      h.Record(v);
    };
    std::thread a(record, 1.0);
    std::thread b(record, 2.0);
    a.join();
    b.join();
    const Histogram::Snapshot snap = h.snapshot();
    ASSERT_EQ(snap.count, 2) << "trial " << trial;
    ASSERT_EQ(snap.min, 1.0) << "trial " << trial;
    ASSERT_EQ(snap.max, 2.0) << "trial " << trial;
  }
}

TEST_F(MetricsTest, SingleValuePercentilesEqualTheValue) {
  MetricRecord("test.one", 0.25);
  const auto snap = MetricsRegistry::Global().HistogramSnapshot("test.one");
  ASSERT_TRUE(snap.has_value());
  EXPECT_DOUBLE_EQ(snap->p50, 0.25);
  EXPECT_DOUBLE_EQ(snap->p99, 0.25);
}

TEST_F(MetricsTest, ConcurrentIncrementsLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        MetricAdd("test.race.counter");
        MetricRecord("test.race.hist", 1e-3);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("test.race.counter"),
            kThreads * kPerThread);
  const auto snap =
      MetricsRegistry::Global().HistogramSnapshot("test.race.hist");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap->min, 1e-3);
  EXPECT_DOUBLE_EQ(snap->max, 1e-3);
}

TEST_F(MetricsTest, ToJsonHasStableSchema) {
  MetricAdd("b.counter", 7);
  MetricAdd("a.counter", 3);
  MetricGauge("g.clusters", 4.0);
  MetricRecord("h.latency", 0.5);
  const std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"schema\": \"qcluster.metrics.v1\""),
            std::string::npos);
  // Counters are alphabetically ordered for stable diffs.
  EXPECT_LT(json.find("\"a.counter\": 3"), json.find("\"b.counter\": 7"));
  EXPECT_NE(json.find("\"g.clusters\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"h.latency\": {\"count\": 1"), std::string::npos);
  for (const char* key : {"\"p50\"", "\"p95\"", "\"p99\"", "\"min\"",
                          "\"max\"", "\"sum\"", "\"overflow\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Structurally balanced (a cheap well-formedness check without a parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(MetricsTest, ToJsonIsDeterministicAcrossInsertionOrders) {
  // Keys are emitted in sorted order regardless of first-touch order, so
  // two exports of the same state — and BENCH_*.json files from different
  // runs — diff cleanly.
  MetricAdd("z.last", 1);
  MetricAdd("a.first", 2);
  MetricGauge("m.middle", 3.0);
  MetricRecord("k.hist", 0.25);
  const std::string once = MetricsRegistry::Global().ToJson();
  EXPECT_EQ(once, MetricsRegistry::Global().ToJson());
  MetricsRegistry::Global().Reset();
  // Same state reached in the reverse touch order exports byte-identically.
  MetricRecord("k.hist", 0.25);
  MetricGauge("m.middle", 3.0);
  MetricAdd("a.first", 2);
  MetricAdd("z.last", 1);
  EXPECT_EQ(MetricsRegistry::Global().ToJson(), once);
  EXPECT_LT(once.find("\"a.first\""), once.find("\"z.last\""));
}

TEST_F(MetricsTest, DumpRoundTripsThroughFile) {
  MetricAdd("dump.counter", 9);
  MetricRecord("dump.hist", 0.125);
  const std::string path = ::testing::TempDir() + "metrics_dump_test.json";
  ASSERT_TRUE(MetricsRegistry::Global().DumpMetrics(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, MetricsRegistry::Global().ToJson() + "\n");
}

TEST_F(MetricsTest, DumpToMissingDirectoryFails) {
  EXPECT_FALSE(MetricsRegistry::Global()
                   .DumpMetrics("/nonexistent-dir/metrics.json")
                   .ok());
}

TEST_F(MetricsTest, DisabledModeRecordsNothing) {
  SetMetricsEnabled(false);
  MetricAdd("off.counter");
  MetricGauge("off.gauge", 1.0);
  MetricRecord("off.hist", 1.0);
  {
    trace::ScopedSpan span("off.timer");
  }
  SetMetricsEnabled(true);  // Re-enable to read back.
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("off.counter"), 0);
  EXPECT_FALSE(MetricsRegistry::Global().GaugeValue("off.gauge").has_value());
  EXPECT_FALSE(
      MetricsRegistry::Global().HistogramSnapshot("off.hist").has_value());
  EXPECT_FALSE(
      MetricsRegistry::Global().HistogramSnapshot("off.timer").has_value());
  const std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_EQ(json.find("off."), std::string::npos);
}

TEST_F(MetricsTest, SpanRecordsElapsedSeconds) {
  // With tracing off, a span is the phase timer: its duration lands in the
  // histogram of its name.
  {
    trace::ScopedSpan span("timed.scope");
  }
  const auto snap =
      MetricsRegistry::Global().HistogramSnapshot("timed.scope");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->count, 1);
  EXPECT_GE(snap->min, 0.0);
  EXPECT_LT(snap->max, 1.0);  // An empty scope is far below a second.
}

TEST_F(MetricsTest, ResetDropsEverything) {
  MetricAdd("reset.counter");
  MetricRecord("reset.hist", 1.0);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("reset.counter"), 0);
  EXPECT_FALSE(
      MetricsRegistry::Global().HistogramSnapshot("reset.hist").has_value());
}

TEST_F(MetricsTest, CachedHandlesSurviveReset) {
  // Call sites are documented free to cache a metric handle for the
  // process lifetime. A Reset must not invalidate such handles: the old
  // object detaches from the registry's exports but stays recordable.
  auto& registry = MetricsRegistry::Global();
  const std::shared_ptr<Counter> counter = registry.counter("survive.counter");
  const std::shared_ptr<Gauge> gauge = registry.gauge("survive.gauge");
  const std::shared_ptr<Histogram> hist = registry.histogram("survive.hist");
  counter->Add(3);
  registry.Reset();

  // Recording through the detached handles is safe (no dangling), and the
  // detached state is preserved on the object itself...
  counter->Add(4);
  gauge->Set(2.5);
  hist->Record(1e-3);
  EXPECT_EQ(counter->value(), 7);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.5);
  EXPECT_EQ(hist->snapshot().count, 1);

  // ...while the registry's exports start from scratch: a fresh lookup is
  // a new object with zeroed state.
  EXPECT_EQ(registry.CounterValue("survive.counter"), 0);
  EXPECT_NE(registry.counter("survive.counter").get(), counter.get());
}

}  // namespace
}  // namespace qcluster
