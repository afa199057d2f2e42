#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/json.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/mutex.h"

namespace qcluster::trace {
namespace {

std::atomic<bool> g_tracing_enabled{false};
std::atomic<double> g_slow_round_ms{0.0};
std::atomic<std::uint64_t> g_next_trace_id{1};
std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<int> g_next_thread_index{0};

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Thread-local cursor the span nesting runs on: the context of the round
/// in flight and the innermost live span (the parent of any new span).
struct ThreadState {
  TraceContext context;
  std::uint64_t active_span = 0;
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

void AppendAttrValue(std::ostringstream& out, const AttrValue& v,
                     bool as_json) {
  switch (v.kind) {
    case AttrValue::Kind::kInt:
      out << v.i;
      break;
    case AttrValue::Kind::kDouble:
      out << (as_json ? JsonNumber(v.d) : FormatDouble(v.d));
      break;
    case AttrValue::Kind::kString:
      if (as_json) {
        out << '"' << JsonEscape(v.s != nullptr ? v.s : "") << '"';
      } else {
        out << (v.s != nullptr ? v.s : "");
      }
      break;
    case AttrValue::Kind::kNone:
      out << "null";
      break;
  }
}

double DurationMs(const SpanRecord& rec) {
  return static_cast<double>(rec.end_ns - rec.begin_ns) / 1e6;
}

/// Sorted traversal order: begin time, span id as the deterministic
/// tiebreak (ids are unique).
std::vector<std::size_t> SortedOrder(const std::vector<SpanRecord>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&spans](std::size_t a, std::size_t b) {
              if (spans[a].begin_ns != spans[b].begin_ns) {
                return spans[a].begin_ns < spans[b].begin_ns;
              }
              return spans[a].span_id < spans[b].span_id;
            });
  return order;
}

/// Emits the round's summary line and, past the slow threshold, its full
/// span tree — called by the owning ScopedTraceContext as it closes, with
/// the recorder's mark from when it opened: the round's spans can only have
/// been retained past it.
void EmitRoundEnd(std::uint64_t trace_id, int round, double elapsed_ms,
                  std::uint64_t mark) {
  TraceRecorder& recorder = TraceRecorder::Global();
  QCLUSTER_LOG(kInfo) << recorder.RoundSummary(trace_id, round, mark);
  const double slow_ms = SlowRoundThresholdMs();
  if (slow_ms > 0.0 && elapsed_ms >= slow_ms) {
    const std::vector<SpanRecord> spans =
        recorder.SpansForRound(trace_id, round, mark);
    std::fprintf(stderr,
                 "qcluster: SLOW round: %.3f ms >= QCLUSTER_SLOW_MS=%.3f "
                 "(trace=%llu round=%d)\n%s",
                 elapsed_ms, slow_ms,
                 static_cast<unsigned long long>(trace_id), round,
                 TraceRecorder::FormatSpanTree(spans).c_str());
  }
}

}  // namespace

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool enabled) {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

double SlowRoundThresholdMs() {
  return g_slow_round_ms.load(std::memory_order_relaxed);
}

void SetSlowRoundThresholdMs(double ms) {
  g_slow_round_ms.store(ms, std::memory_order_relaxed);
}

std::uint64_t NewTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void ScopedSpan::Begin(const char* name, bool tracing, bool timing) {
  rec_.name = name;
  tracing_ = tracing;
  timing_ = timing;
  if (tracing) {
    ThreadState& ts = State();
    rec_.trace_id = ts.context.trace_id;
    rec_.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    rec_.parent_id = ts.active_span;
    rec_.round = ts.context.round;
    rec_.thread_index = internal::LocalBuffer().thread_index();
    rec_.attr_count = 0;
    ts.active_span = rec_.span_id;
  }
  rec_.begin_ns = NowNs();
}

void ScopedSpan::End() {
  rec_.end_ns = NowNs();
  if (timing_) {
    MetricRecord(rec_.name, static_cast<double>(rec_.end_ns - rec_.begin_ns) *
                                1e-9);
  }
  if (tracing_) {
    // Scoped nesting is LIFO per thread, so the parent saved at Begin is
    // exactly the span to restore.
    State().active_span = rec_.parent_id;
    internal::LocalBuffer().Push(rec_);
  }
}

void ScopedSpan::AddAttr(const char* key, long long value) {
  if (!tracing_ || rec_.attr_count >= SpanRecord::kMaxAttrs) return;
  rec_.attr_keys[rec_.attr_count] = key;
  rec_.attr_values[rec_.attr_count] =
      AttrValue{AttrValue::Kind::kInt, value, 0.0, nullptr};
  ++rec_.attr_count;
}

void ScopedSpan::AddAttr(const char* key, double value) {
  if (!tracing_ || rec_.attr_count >= SpanRecord::kMaxAttrs) return;
  rec_.attr_keys[rec_.attr_count] = key;
  rec_.attr_values[rec_.attr_count] =
      AttrValue{AttrValue::Kind::kDouble, 0, value, nullptr};
  ++rec_.attr_count;
}

void ScopedSpan::AddAttr(const char* key, const char* value) {
  if (!tracing_ || rec_.attr_count >= SpanRecord::kMaxAttrs) return;
  rec_.attr_keys[rec_.attr_count] = key;
  rec_.attr_values[rec_.attr_count] =
      AttrValue{AttrValue::Kind::kString, 0, 0.0, value};
  ++rec_.attr_count;
}

ScopedTraceContext::ScopedTraceContext(std::uint64_t trace_id, int round) {
  if (!TracingEnabled() || trace_id == 0) return;
  ThreadState& ts = State();
  saved_ = ts.context;
  saved_span_ = ts.active_span;
  installed_ = TraceContext{trace_id, round};
  ts.context = installed_;
  ts.active_span = 0;
  mark_ = TraceRecorder::Global().Mark();
  begin_ns_ = NowNs();
  owner_ = true;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (!owner_) return;
  ThreadState& ts = State();
  ts.context = saved_;
  ts.active_span = saved_span_;
  const double elapsed_ms =
      static_cast<double>(NowNs() - begin_ns_) / 1e6;
  EmitRoundEnd(installed_.trace_id, installed_.round, elapsed_ms, mark_);
}

PropagatedContext CaptureContext() {
  PropagatedContext out;
  if (!TracingEnabled()) return out;
  const ThreadState& ts = State();
  out.active = true;
  out.context = ts.context;
  out.parent_span = ts.active_span;
  return out;
}

ScopedWorkerSpan::ScopedWorkerSpan(const PropagatedContext& ctx, int shard) {
  if (!ctx.active) return;
  ThreadState& ts = State();
  saved_ = ts.context;
  saved_span_ = ts.active_span;
  ts.context = ctx.context;
  ts.active_span = ctx.parent_span;
  active_ = true;
  span_.emplace("thread_pool.shard");
  span_->AddAttr("shard", static_cast<long long>(shard));
}

ScopedWorkerSpan::~ScopedWorkerSpan() {
  if (!active_) return;
  span_.reset();  // Ends the shard span before the context is torn down.
  ThreadState& ts = State();
  ts.context = saved_;
  ts.active_span = saved_span_;
}

namespace internal {

ThreadBuffer::ThreadBuffer()
    : thread_index_(g_next_thread_index.fetch_add(
          1, std::memory_order_relaxed)) {}

void ThreadBuffer::Push(const SpanRecord& rec) {
  MutexLock lock(mu_);
  if (ring_ == nullptr) {
    // Lazy: threads that never trace a span (and disabled-mode runs) never
    // allocate a ring.
    ring_ = std::make_unique<SpanRecord[]>(kCapacity);
  }
  ring_[static_cast<std::size_t>(next_)] = rec;
  next_ = (next_ + 1) % kCapacity;
  if (size_ < kCapacity) {
    ++size_;
  } else {
    ++dropped_;  // The slot just overwritten held the oldest record.
  }
}

void ThreadBuffer::DrainInto(std::vector<SpanRecord>* out) {
  MutexLock lock(mu_);
  const int start = (next_ - size_ + kCapacity) % kCapacity;
  for (int i = 0; i < size_; ++i) {
    out->push_back(ring_[static_cast<std::size_t>((start + i) % kCapacity)]);
  }
  size_ = 0;
}

long long ThreadBuffer::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void ThreadBuffer::ResetDropped() {
  MutexLock lock(mu_);
  dropped_ = 0;
}

ThreadBuffer& LocalBuffer() {
  // The shared_ptr keeps the buffer alive in the recorder past thread
  // exit, so spans recorded by short-lived threads still drain.
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    TraceRecorder::Global().RegisterBuffer(created);
    return created;
  }();
  return *buffer;
}

bool InitTraceFromEnv() {
  static const bool applied = [] {
    bool any = false;
    const char* spec = std::getenv("QCLUSTER_TRACE");
    if (spec != nullptr && spec[0] != '\0') {
      SetTracingEnabled(true);
      static std::string g_dump_target;  // Outlives the atexit handler.
      g_dump_target = spec;
      std::atexit([] {
        TraceRecorder& recorder = TraceRecorder::Global();
        if (g_dump_target == "stderr") {
          std::fprintf(stderr, "%s\n",
                       recorder.ToChromeTraceJson().c_str());
          return;
        }
        const Status status = recorder.DumpChromeTrace(g_dump_target);
        if (!status.ok()) {
          std::fprintf(stderr, "qcluster: trace dump failed: %s\n",
                       status.ToString().c_str());
        }
      });
      any = true;
    }
    const char* slow = std::getenv("QCLUSTER_SLOW_MS");
    if (slow != nullptr && slow[0] != '\0') {
      const double ms = std::atof(slow);
      if (ms > 0.0) {
        SetTracingEnabled(true);
        SetSlowRoundThresholdMs(ms);
        any = true;
      }
    }
    return any;
  }();
  return applied;
}

}  // namespace internal

TraceRecorder& TraceRecorder::Global() {
  // Leaked intentionally: thread buffers may outlive main, and the atexit
  // trace dump must find the recorder alive.
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::RegisterBuffer(
    std::shared_ptr<internal::ThreadBuffer> buffer) {
  MutexLock lock(mu_);
  buffers_.push_back(std::move(buffer));
}

void TraceRecorder::Drain() {
  std::vector<std::shared_ptr<internal::ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  std::vector<SpanRecord> drained;
  for (const auto& buffer : buffers) buffer->DrainInto(&drained);
  MutexLock lock(mu_);
  for (const SpanRecord& rec : drained) retained_.push_back(rec);
  appended_ += drained.size();
  while (retained_.size() > kMaxRetained) {
    retained_.pop_front();
    ++retained_dropped_;
  }
}

std::vector<SpanRecord> TraceRecorder::Snapshot() {
  Drain();
  MutexLock lock(mu_);
  return std::vector<SpanRecord>(retained_.begin(), retained_.end());
}

std::vector<SpanRecord> TraceRecorder::SpansForRound(std::uint64_t trace_id,
                                                     int round,
                                                     std::uint64_t since) {
  Drain();
  MutexLock lock(mu_);
  // retained_[i] is the span retained at position appended_ - size + i.
  const std::uint64_t first = appended_ - retained_.size();
  const auto begin = static_cast<std::size_t>(std::min<std::uint64_t>(
      since > first ? since - first : 0, retained_.size()));
  std::vector<SpanRecord> out;
  for (std::size_t i = begin; i < retained_.size(); ++i) {
    const SpanRecord& rec = retained_[i];
    if (rec.trace_id == trace_id && (round < 0 || rec.round == round)) {
      out.push_back(rec);
    }
  }
  return out;
}

std::uint64_t TraceRecorder::Mark() {
  MutexLock lock(mu_);
  return appended_;
}

long long TraceRecorder::dropped() const {
  std::vector<std::shared_ptr<internal::ThreadBuffer>> buffers;
  long long total = 0;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
    total = retained_dropped_;
  }
  for (const auto& buffer : buffers) total += buffer->dropped();
  return total;
}

void TraceRecorder::Reset() {
  std::vector<std::shared_ptr<internal::ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  std::vector<SpanRecord> junk;
  for (const auto& buffer : buffers) {
    buffer->DrainInto(&junk);
    buffer->ResetDropped();
  }
  MutexLock lock(mu_);
  retained_.clear();
  retained_dropped_ = 0;
}

std::string TraceRecorder::ToChromeTraceJson() {
  std::vector<SpanRecord> spans = Snapshot();
  const std::vector<std::size_t> order = SortedOrder(spans);
  // Timestamps relative to the earliest span keep the export small and
  // stable in shape; chrome://tracing only needs consistency.
  const std::int64_t base =
      order.empty() ? 0 : spans[order.front()].begin_ns;
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t idx : order) {
    const SpanRecord& rec = spans[idx];
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\": \"" << JsonEscape(rec.name) << "\", "
        << "\"cat\": \"qcluster\", \"ph\": \"X\", "
        << "\"ts\": "
        << JsonNumber(static_cast<double>(rec.begin_ns - base) / 1e3)
        << ", \"dur\": "
        << JsonNumber(static_cast<double>(rec.end_ns - rec.begin_ns) / 1e3)
        << ", \"pid\": " << rec.trace_id
        << ", \"tid\": " << rec.thread_index << ", \"args\": {"
        << "\"span\": " << rec.span_id << ", \"parent\": " << rec.parent_id
        << ", \"round\": " << rec.round;
    for (int a = 0; a < rec.attr_count; ++a) {
      out << ", \"" << JsonEscape(rec.attr_keys[a]) << "\": ";
      AppendAttrValue(out, rec.attr_values[a], /*as_json=*/true);
    }
    out << "}}";
  }
  out << "\n]}";
  return out.str();
}

Status TraceRecorder::DumpChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace dump file: " + path);
  }
  const std::string json = ToChromeTraceJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) return Status::Internal("short write to trace dump: " + path);
  return Status::OK();
}

std::string TraceRecorder::RoundSummary(std::uint64_t trace_id, int round,
                                        std::uint64_t since) {
  const std::vector<SpanRecord> spans = SpansForRound(trace_id, round, since);
  std::ostringstream out;
  out << "trace=" << trace_id << " round=" << round;
  if (spans.empty()) {
    out << " (no spans)";
    return out.str();
  }
  std::int64_t min_begin = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_end = std::numeric_limits<std::int64_t>::min();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    min_begin = std::min(min_begin, spans[i].begin_ns);
    max_end = std::max(max_end, spans[i].end_ns);
    by_id.emplace(spans[i].span_id, i);
  }
  out << " total="
      << FormatDouble(static_cast<double>(max_end - min_begin) / 1e6)
      << "ms";

  // Phase breakdown: every span within two levels of the round's root(s),
  // aggregated by name (a span whose parent was dropped counts as a root).
  auto depth_of = [&by_id, &spans](const SpanRecord& rec) {
    int depth = 0;
    std::uint64_t parent = rec.parent_id;
    while (parent != 0 && depth <= 2) {
      const auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      ++depth;
      parent = spans[it->second].parent_id;
    }
    return depth;
  };
  struct Phase {
    std::int64_t first_begin;
    double sum_ms;
    long long count;
  };
  std::unordered_map<std::string, Phase> phases;
  for (std::size_t idx : SortedOrder(spans)) {
    const SpanRecord& rec = spans[idx];
    if (depth_of(rec) > 2) continue;
    const auto [it, inserted] =
        phases.emplace(rec.name, Phase{rec.begin_ns, 0.0, 0});
    it->second.sum_ms += DurationMs(rec);
    ++it->second.count;
  }
  std::vector<std::pair<std::string, Phase>> ordered(phases.begin(),
                                                     phases.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.second.first_begin != b.second.first_begin) {
                return a.second.first_begin < b.second.first_begin;
              }
              return a.first < b.first;
            });
  for (const auto& [name, phase] : ordered) {
    out << " " << name << "=" << FormatDouble(phase.sum_ms) << "ms";
    if (phase.count > 1) out << "/" << phase.count;
  }
  out << " spans=" << spans.size();
  return out.str();
}

std::string TraceRecorder::FormatSpanTree(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id.emplace(spans[i].span_id, i);
  }
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;
  for (std::size_t idx : SortedOrder(spans)) {
    const SpanRecord& rec = spans[idx];
    if (rec.parent_id != 0 && by_id.contains(rec.parent_id)) {
      children[rec.parent_id].push_back(idx);
    } else {
      roots.push_back(idx);
    }
  }
  std::ostringstream out;
  const std::function<void(std::size_t, int)> print =
      [&](std::size_t idx, int depth) {
        const SpanRecord& rec = spans[idx];
        for (int i = 0; i < depth; ++i) out << "  ";
        out << rec.name << " " << FormatDouble(DurationMs(rec)) << "ms";
        if (depth == 0) {
          out << " trace=" << rec.trace_id << " round=" << rec.round;
        }
        out << " tid=" << rec.thread_index;
        if (rec.attr_count > 0) {
          out << " {";
          for (int a = 0; a < rec.attr_count; ++a) {
            out << (a > 0 ? " " : "") << rec.attr_keys[a] << "=";
            AppendAttrValue(out, rec.attr_values[a], /*as_json=*/false);
          }
          out << "}";
        }
        out << "\n";
        const auto it = children.find(rec.span_id);
        if (it != children.end()) {
          for (std::size_t child : it->second) print(child, depth + 1);
        }
      };
  for (std::size_t root : roots) print(root, 0);
  return out.str();
}

}  // namespace qcluster::trace
