#ifndef QCLUSTER_COMMON_METRICS_H_
#define QCLUSTER_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace qcluster {

/// Process-wide observability for the feedback loop: named monotonic
/// counters, gauges, and latency histograms, collected into a single
/// registry and exported as JSON. Collection is gated by a global enable
/// flag (off by default) so the un-instrumented fast path costs one relaxed
/// atomic load per site.
///
/// Enablement happens either programmatically (SetMetricsEnabled) or via
/// the environment, parsed at process start next to QCLUSTER_LOG_LEVEL:
///
///   QCLUSTER_METRICS=stderr           collect, dump JSON to stderr at exit
///   QCLUSTER_METRICS=/path/to/m.json  collect, dump JSON to the file at exit

/// A monotonically increasing counter.
class Counter {
 public:
  void Add(long long delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

/// A last-value-wins instantaneous measurement.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A histogram over fixed log-scale buckets (4 buckets per octave starting
/// at 1 ns), suitable for latencies in seconds and for counts. Recording is
/// lock-free; percentiles are estimated from the bucket the quantile falls
/// in (geometric bucket midpoint, clamped to the observed min/max — the
/// estimate is within one bucket ratio, ~19%, of the true value).
class Histogram {
 public:
  /// Bucket i covers (kMinValue·r^(i-1), kMinValue·r^i] with r = 2^(1/4).
  /// 192 buckets span 1e-9 .. ~2.8e5 (nanoseconds to ~3 days in seconds).
  static constexpr int kNumBuckets = 192;
  static constexpr int kBucketsPerOctave = 4;
  static constexpr double kMinValue = 1e-9;
  /// BucketUpperEdge(kNumBuckets - 1). A larger sample still lands in the
  /// top bucket, which caps its percentiles, so it is also counted as
  /// overflow to keep the saturation visible.
  static constexpr double kMaxValue =
      kMinValue *
      static_cast<double>(1LL << (kNumBuckets / kBucketsPerOctave));

  void Record(double value);

  struct Snapshot {
    long long count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    long long overflow = 0;  ///< Samples above kMaxValue.
    /// NaN samples: counted here only, never in the buckets, count, sum,
    /// min or max.
    long long nan = 0;
  };
  Snapshot snapshot() const;

  /// Upper edge of bucket `i` (exposed for tests).
  static double BucketUpperEdge(int i);
  /// Bucket index a value lands in (exposed for tests).
  static int BucketIndex(double value);

 private:
  double Percentile(double q, long long count, double min, double max) const;

  // Deliberately lock-free (recording sits on the search hot path): the
  // counts are relaxed fetch_adds, and sum/min/max are maintained by the CAS
  // loops in metrics.cc. No GUARDED_BY applies — the atomics are their own
  // synchronization; snapshot() tolerates torn cross-field views. min and
  // max start at the identity of their loop (+inf, -inf), so the first
  // sample needs no seeding and concurrent first samples cannot race.
  std::atomic<long long> buckets_[kNumBuckets] = {};
  std::atomic<long long> count_{0};
  std::atomic<long long> overflow_{0};
  std::atomic<long long> nan_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Owner of every named metric. Metric objects are shared-owned: the
/// registry holds one reference and every handed-out handle holds its own,
/// so cached handles stay valid (recording into a detached object) even
/// across Reset. Call sites may therefore cache the returned handles for
/// the process lifetime.
class MetricsRegistry {
 public:
  /// The process-wide registry used by all instrumentation.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get. Thread-safe; the handle co-owns the metric, so it
  /// outlives Reset (a reset detaches it from the registry's exports but
  /// never dangles).
  std::shared_ptr<Counter> counter(std::string_view name);
  std::shared_ptr<Gauge> gauge(std::string_view name);
  std::shared_ptr<Histogram> histogram(std::string_view name);

  /// Read access for tests and exporters. nullopt / 0 when the metric has
  /// never been touched.
  long long CounterValue(std::string_view name) const;
  std::optional<double> GaugeValue(std::string_view name) const;
  std::optional<Histogram::Snapshot> HistogramSnapshot(
      std::string_view name) const;

  /// Drops every metric (test isolation and bench run boundaries).
  void Reset();

  /// Serializes all metrics to a stable, alphabetically ordered JSON
  /// document:
  ///   {"schema": "qcluster.metrics.v1",
  ///    "counters": {name: integer, ...},
  ///    "gauges": {name: number, ...},
  ///    "histograms": {name: {"count": n, "sum": s, "min": m, "max": M,
  ///                          "p50": v, "p95": v, "p99": v,
  ///                          "overflow": n, "nan": n}, ...}}
  /// A non-finite number (a NaN gauge, an infinite sample's sum) is
  /// written as null.
  std::string ToJson() const;

  /// Writes ToJson() (plus a trailing newline) to `path`.
  [[nodiscard]] Status DumpMetrics(const std::string& path) const;

  /// Writes ToJson() to stderr.
  void DumpMetricsToStderr() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Counter>, std::less<>> counters_
      QCLUSTER_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Gauge>, std::less<>> gauges_
      QCLUSTER_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Histogram>, std::less<>> histograms_
      QCLUSTER_GUARDED_BY(mu_);
};

/// Global collection switch. Off by default; flipped by QCLUSTER_METRICS or
/// explicitly (bench harness, tests, --metrics flags).
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

namespace internal {

/// Applies QCLUSTER_METRICS from the environment and registers the exit
/// dump; idempotent. Referenced from the inline variable below so the
/// initializer survives static-library linking in every binary that
/// includes this header.
bool InitMetricsFromEnv();
inline const bool kMetricsEnvApplied = InitMetricsFromEnv();

}  // namespace internal

/// Gated instrumentation helpers: no-ops (beyond one relaxed atomic load)
/// while metrics are disabled. Phase latencies need no call of their own:
/// every trace::ScopedSpan (common/trace.h) records its duration into the
/// histogram of its name.
void MetricAdd(std::string_view name, long long delta = 1);
void MetricGauge(std::string_view name, double value);
void MetricRecord(std::string_view name, double value);

}  // namespace qcluster

#endif  // QCLUSTER_COMMON_METRICS_H_
