#include "common/metrics.h"

// Pulled in for its QCLUSTER_LOG_LEVEL startup hook: any binary that links
// the metrics machinery (everything that touches the engine or an index)
// thereby honors both environment variables, even when none of its own
// translation units include logging.h.
#include "common/logging.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/json.h"
#include "common/mutex.h"

namespace qcluster {
namespace {

std::atomic<bool> g_metrics_enabled{false};

void AtomicDoubleAdd(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicDoubleMin(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value < expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicDoubleMax(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value > expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

double Histogram::BucketUpperEdge(int i) {
  return kMinValue *
         std::exp2(static_cast<double>(i + 1) / kBucketsPerOctave);
}

int Histogram::BucketIndex(double value) {
  if (!(value > kMinValue)) return 0;  // Also catches NaN and negatives.
  // Also catches +inf, whose log2 no int can hold.
  if (value > kMaxValue) return kNumBuckets - 1;
  const int idx = static_cast<int>(
      std::ceil(std::log2(value / kMinValue) * kBucketsPerOctave)) - 1;
  return std::clamp(idx, 0, kNumBuckets - 1);
}

void Histogram::Record(double value) {
  if (std::isnan(value)) {
    // NaN has no bucket and would poison sum, min and max for good.
    nan_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  if (value > kMaxValue) overflow_.fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicDoubleAdd(sum_, value);
  AtomicDoubleMin(min_, value);
  AtomicDoubleMax(max_, value);
}

double Histogram::Percentile(double q, long long count, double min,
                             double max) const {
  if (count <= 0) return 0.0;
  const long long target = std::max<long long>(
      1, static_cast<long long>(std::ceil(q * static_cast<double>(count))));
  long long cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const long long in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (cumulative + in_bucket >= target) {
      // Interpolate the target rank's position within the bucket in log
      // space (the buckets are geometric, so log space is where mass is
      // uniform under the bucketing's own resolution), clamped to the
      // observed range so single-sample and edge buckets stay exact.
      const double hi = BucketUpperEdge(i);
      const double lo = i == 0 ? kMinValue : BucketUpperEdge(i - 1);
      const double frac = in_bucket <= 0
                              ? 1.0
                              : (static_cast<double>(target - cumulative)) /
                                    static_cast<double>(in_bucket);
      return std::clamp(lo * std::pow(hi / lo, frac), min, max);
    }
    cumulative += in_bucket;
  }
  return max;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  if (snap.min > snap.max) {
    // No sample yet (min and max still at +inf and -inf), or a snapshot
    // torn before the first sample's extrema landed.
    snap.min = 0.0;
    snap.max = 0.0;
  }
  snap.overflow = overflow_.load(std::memory_order_relaxed);
  snap.nan = nan_.load(std::memory_order_relaxed);
  snap.p50 = Percentile(0.50, snap.count, snap.min, snap.max);
  snap.p95 = Percentile(0.95, snap.count, snap.min, snap.max);
  snap.p99 = Percentile(0.99, snap.count, snap.min, snap.max);
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::shared_ptr<Counter> MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_shared<Counter>())
             .first;
  }
  return it->second;
}

std::shared_ptr<Gauge> MetricsRegistry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_shared<Gauge>()).first;
  }
  return it->second;
}

std::shared_ptr<Histogram> MetricsRegistry::histogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_shared<Histogram>())
             .first;
  }
  return it->second;
}

long long MetricsRegistry::CounterValue(std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::optional<double> MetricsRegistry::GaugeValue(
    std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) return std::nullopt;
  return it->second->value();
}

std::optional<Histogram::Snapshot> MetricsRegistry::HistogramSnapshot(
    std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return std::nullopt;
  return it->second->snapshot();
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << "{\"schema\": \"qcluster.metrics.v1\"";

  out << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "" : ", ") << '"' << JsonEscape(name)
        << "\": " << counter->value();
    first = false;
  }
  out << "}";

  out << ", \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "" : ", ") << '"' << JsonEscape(name)
        << "\": " << JsonNumber(gauge->value());
    first = false;
  }
  out << "}";

  out << ", \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot s = histogram->snapshot();
    out << (first ? "" : ", ") << '"' << JsonEscape(name) << "\": {"
        << "\"count\": " << s.count << ", \"sum\": " << JsonNumber(s.sum)
        << ", \"min\": " << JsonNumber(s.min)
        << ", \"max\": " << JsonNumber(s.max)
        << ", \"p50\": " << JsonNumber(s.p50)
        << ", \"p95\": " << JsonNumber(s.p95)
        << ", \"p99\": " << JsonNumber(s.p99)
        << ", \"overflow\": " << s.overflow << ", \"nan\": " << s.nan
        << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

Status MetricsRegistry::DumpMetrics(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open metrics dump file: " + path);
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) return Status::Internal("short write to metrics dump: " + path);
  return Status::OK();
}

void MetricsRegistry::DumpMetricsToStderr() const {
  std::fprintf(stderr, "%s\n", ToJson().c_str());
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void MetricAdd(std::string_view name, long long delta) {
  if (!MetricsEnabled()) return;
  MetricsRegistry::Global().counter(name)->Add(delta);
}

void MetricGauge(std::string_view name, double value) {
  if (!MetricsEnabled()) return;
  MetricsRegistry::Global().gauge(name)->Set(value);
}

void MetricRecord(std::string_view name, double value) {
  if (!MetricsEnabled()) return;
  MetricsRegistry::Global().histogram(name)->Record(value);
}

namespace internal {

/// Parses QCLUSTER_METRICS and registers the exit dump. Lives in the
/// library (rather than in user code) so any binary honors the variable
/// without changes.
bool InitMetricsFromEnv() {
  static const bool applied = [] {
    const char* spec = std::getenv("QCLUSTER_METRICS");
    if (spec == nullptr || spec[0] == '\0') return false;
    SetMetricsEnabled(true);
    static std::string g_dump_target;  // Outlives the atexit handler.
    g_dump_target = spec;
    std::atexit([] {
      if (g_dump_target == "stderr") {
        MetricsRegistry::Global().DumpMetricsToStderr();
        return;
      }
      const Status status =
          MetricsRegistry::Global().DumpMetrics(g_dump_target);
      if (!status.ok()) {
        std::fprintf(stderr, "qcluster: metrics dump failed: %s\n",
                     status.ToString().c_str());
      }
    });
    return true;
  }();
  return applied;
}

}  // namespace internal

}  // namespace qcluster
