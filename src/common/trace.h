#ifndef QCLUSTER_COMMON_TRACE_H_
#define QCLUSTER_COMMON_TRACE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/annotations.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"

namespace qcluster::trace {

/// Per-query structured tracing for the feedback loop.
///
/// Where the metrics registry (common/metrics.h) aggregates — "the median
/// classify phase takes 0.2 ms" — tracing attributes wall time to the span
/// tree ONE request actually executed: this feedback round, on this trace,
/// spent 10.1 ms in the disjunctive k-NN, of which shard 3's scan was the
/// straggler. Spans carry a TraceContext (trace id + round id) that flows
/// QclusterEngine → classifier/merging → the index implementations, and
/// across ThreadPool::ParallelFor boundaries (worker shard spans are
/// parented to the submitting span). The same spans time the phases for
/// the metrics registry: with metrics on, each one records its duration
/// in seconds into the histogram of its own name.
///
/// Recording is lock-cheap: each thread owns a fixed-capacity ring buffer
/// (oldest span dropped on overflow, never blocking), drained on demand
/// into the bounded process-wide TraceRecorder. Collection is off by
/// default; with tracing and metrics both off a span site costs two
/// relaxed atomic loads and no allocation.
///
/// Environment hooks, parsed at process start next to QCLUSTER_METRICS:
///
///   QCLUSTER_TRACE=stderr         collect; dump Chrome trace JSON to
///                                 stderr at exit
///   QCLUSTER_TRACE=/path/t.json   same, to the file (loadable in
///                                 chrome://tracing or https://ui.perfetto.dev)
///   QCLUSTER_SLOW_MS=N            collect; any feedback round slower than
///                                 N ms dumps its full span tree to stderr

/// The identity a span records: which logical request (trace) and which
/// feedback round of it. trace_id 0 means "no context established".
struct TraceContext {
  std::uint64_t trace_id = 0;
  int round = -1;
};

/// A typed span attribute value. String values must have static storage
/// duration (string literals): records outlive the recording scope.
struct AttrValue {
  enum class Kind : std::uint8_t { kNone, kInt, kDouble, kString };
  Kind kind = Kind::kNone;
  long long i = 0;
  double d = 0.0;
  const char* s = nullptr;
};

/// One finished span. Plain data, fully written by ScopedSpan before it is
/// pushed into a ring buffer; `name` and attribute keys are static strings.
struct SpanRecord {
  static constexpr int kMaxAttrs = 6;

  const char* name;
  std::uint64_t trace_id;
  std::uint64_t span_id;
  std::uint64_t parent_id;  ///< 0 = root.
  int round;
  int thread_index;  ///< Small per-thread ordinal, stable for the process.
  std::int64_t begin_ns;  ///< steady_clock, comparable within the process.
  std::int64_t end_ns;
  int attr_count;
  const char* attr_keys[kMaxAttrs];
  AttrValue attr_values[kMaxAttrs];
};

/// Global collection switch. Off by default; flipped by QCLUSTER_TRACE /
/// QCLUSTER_SLOW_MS or explicitly (CLI flags, tests).
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

/// Slow-round threshold in milliseconds; <= 0 disables the slow-query log.
double SlowRoundThresholdMs();
void SetSlowRoundThresholdMs(double ms);

/// Allocates a fresh process-unique trace id (never 0).
std::uint64_t NewTraceId();

/// RAII span: begins on construction and ends on destruction, reading the
/// clock once at each edge. With tracing on it records itself into the
/// thread's ring buffer, nesting via a thread-local (the span active at
/// construction becomes the parent); with metrics on it records its
/// duration in seconds into the histogram named `name`. With both off it
/// does nothing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    const bool tracing = TracingEnabled();
    const bool timing = MetricsEnabled();
    if (tracing || timing) Begin(name, tracing, timing);
  }
  ~ScopedSpan() {
    if (tracing_ || timing_) End();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a typed attribute; silently dropped beyond
  /// SpanRecord::kMaxAttrs. Keys and string values must be static strings.
  void AddAttr(const char* key, long long value);
  void AddAttr(const char* key, double value);
  void AddAttr(const char* key, const char* value);
  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_same_v<T, long long>,
                                         int> = 0>
  void AddAttr(const char* key, T value) {
    AddAttr(key, static_cast<long long>(value));
  }

  /// 0 unless tracing was enabled at construction.
  std::uint64_t span_id() const { return tracing_ ? rec_.span_id : 0; }

 private:
  void Begin(const char* name, bool tracing, bool timing);
  void End();

  bool tracing_ = false;  ///< Recording into the trace ring.
  bool timing_ = false;   ///< Recording into the metrics histogram.
  // Deliberately not value-initialized: Begin() writes every field it
  // reads, and zeroing ~300 bytes per disabled span is the overhead the
  // disabled path must not pay.
  SpanRecord rec_;
};

/// RAII trace-context scope for one feedback round. Takes ownership iff
/// tracing is enabled and `trace_id` is non-zero. The owner installs the
/// context for the scope and, on destruction, restores the previous one,
/// drains the recorder and emits the round's compact summary line, plus the
/// full span tree to stderr when the round exceeded the slow threshold.
/// Both read only the spans retained since the scope opened
/// (TraceRecorder::Mark), so a round's cost does not grow with the spans
/// earlier rounds left behind.
class ScopedTraceContext {
 public:
  ScopedTraceContext(std::uint64_t trace_id, int round);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  bool owner_ = false;
  TraceContext installed_;
  TraceContext saved_;
  std::uint64_t saved_span_ = 0;
  std::int64_t begin_ns_ = 0;
  std::uint64_t mark_ = 0;  ///< TraceRecorder::Mark() when installed.
};

/// Snapshot of the submitting thread's context + active span, captured
/// before handing work to pool threads.
struct PropagatedContext {
  bool active = false;
  TraceContext context;
  std::uint64_t parent_span = 0;
};

/// Captures the calling thread's context for propagation; inactive while
/// tracing is disabled (and then free beyond one atomic load).
PropagatedContext CaptureContext();

/// RAII scope a pool worker (or the caller, for shard 0) opens around one
/// ParallelFor shard: installs the submitter's context on this thread and
/// records a "thread_pool.shard" span parented to the submitting span.
class ScopedWorkerSpan {
 public:
  ScopedWorkerSpan(const PropagatedContext& ctx, int shard);
  ~ScopedWorkerSpan();

  ScopedWorkerSpan(const ScopedWorkerSpan&) = delete;
  ScopedWorkerSpan& operator=(const ScopedWorkerSpan&) = delete;

 private:
  bool active_ = false;
  TraceContext saved_;
  std::uint64_t saved_span_ = 0;
  std::optional<ScopedSpan> span_;
};

namespace internal {

/// Fixed-capacity per-thread span ring. Push overwrites the oldest record
/// when full (incrementing the dropped counter) and never blocks beyond an
/// uncontended mutex — the lock is only ever contended by a drain.
class ThreadBuffer {
 public:
  static constexpr int kCapacity = 4096;

  ThreadBuffer();

  void Push(const SpanRecord& rec);
  /// Appends the buffered records, oldest first, and clears the ring.
  void DrainInto(std::vector<SpanRecord>* out);
  long long dropped() const;
  void ResetDropped();
  int thread_index() const { return thread_index_; }

 private:
  const int thread_index_;
  mutable Mutex mu_;
  std::unique_ptr<SpanRecord[]> ring_ QCLUSTER_GUARDED_BY(mu_);
  int size_ QCLUSTER_GUARDED_BY(mu_) = 0;
  int next_ QCLUSTER_GUARDED_BY(mu_) = 0;  ///< Ring slot the next push uses.
  long long dropped_ QCLUSTER_GUARDED_BY(mu_) = 0;
};

/// The calling thread's buffer, created and registered on first use.
ThreadBuffer& LocalBuffer();

/// Applies QCLUSTER_TRACE / QCLUSTER_SLOW_MS from the environment and
/// registers the exit dump; idempotent. Referenced from the inline variable
/// below so the initializer survives static-library linking in every binary
/// that includes this header.
bool InitTraceFromEnv();
inline const bool kTraceEnvApplied = InitTraceFromEnv();

}  // namespace internal

/// Bounded owner of every drained span. Thread buffers register themselves
/// here and are kept alive past thread exit; Drain moves their contents
/// into the bounded retained set (oldest dropped beyond kMaxRetained).
class TraceRecorder {
 public:
  /// The process-wide recorder used by all instrumentation.
  static TraceRecorder& Global();

  /// Retention cap on drained spans (~128k spans ≈ a few thousand rounds).
  static constexpr std::size_t kMaxRetained = std::size_t{1} << 17;

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Pulls every thread buffer's records into the retained set.
  void Drain();

  /// Drains, then returns a copy of the retained spans (drain order:
  /// per-thread oldest-first; use begin_ns to order globally).
  std::vector<SpanRecord> Snapshot();

  /// Drains, then returns the spans of one (trace, round) among those
  /// retained at or past `since`, a Mark() (0, the default, reads every
  /// retained span); round -1 matches every round of the trace.
  std::vector<SpanRecord> SpansForRound(std::uint64_t trace_id, int round,
                                        std::uint64_t since = 0);

  /// The count of spans ever retained: the position the next drained span
  /// takes. A span recorded after this call can only be retained at or
  /// past it.
  std::uint64_t Mark();

  /// Total spans dropped so far: ring-buffer overwrites plus retained-set
  /// evictions.
  long long dropped() const;

  /// Clears retained spans and every registered thread buffer, and zeroes
  /// the dropped counters (test isolation).
  void Reset();

  /// Serializes the retained spans (after a drain) as a deterministic
  /// Chrome trace_event JSON document: {"displayTimeUnit": "ms",
  /// "traceEvents": [...]} with one complete ("ph": "X") event per span,
  /// sorted by (begin, span id). pid = trace id, tid = thread index, so
  /// chrome://tracing groups rows by trace and nests spans per thread.
  std::string ToChromeTraceJson();

  /// Writes ToChromeTraceJson() (plus a trailing newline) to `path`.
  [[nodiscard]] Status DumpChromeTrace(const std::string& path);

  /// One-line per-round summary: total wall time plus the per-phase
  /// durations of every span within two levels of the round's root, e.g.
  ///   trace=3 round=1 total=12.4ms feedback.total=12.2ms
  ///   feedback.knn_query=10.1ms ... spans=42
  /// over the spans SpansForRound(trace_id, round, since) returns.
  std::string RoundSummary(std::uint64_t trace_id, int round,
                           std::uint64_t since = 0);

  /// Indented rendering of a span forest (children under parents, siblings
  /// by begin time), one span per line with duration and attributes.
  static std::string FormatSpanTree(const std::vector<SpanRecord>& spans);

 private:
  friend internal::ThreadBuffer& internal::LocalBuffer();
  void RegisterBuffer(std::shared_ptr<internal::ThreadBuffer> buffer);

  mutable Mutex mu_;
  std::vector<std::shared_ptr<internal::ThreadBuffer>> buffers_
      QCLUSTER_GUARDED_BY(mu_);
  std::deque<SpanRecord> retained_ QCLUSTER_GUARDED_BY(mu_);
  /// Spans ever appended to retained_; never reset, so marks stay valid.
  std::uint64_t appended_ QCLUSTER_GUARDED_BY(mu_) = 0;
  long long retained_dropped_ QCLUSTER_GUARDED_BY(mu_) = 0;
};

}  // namespace qcluster::trace

/// Declares an RAII span `var` covering the rest of the enclosing scope.
/// `var` is a real object so call sites can attach attributes:
///   QCLUSTER_TRACE_SPAN(span, "index.linear_scan.search");
///   span.AddAttr("k", k);
#define QCLUSTER_TRACE_SPAN(var, name) ::qcluster::trace::ScopedSpan var(name)
/// Establishes the (trace id, round id) context for the rest of the scope
/// and emits the round's summary / slow-query log when it closes.
#define QCLUSTER_TRACE_ROUND(var, trace_id, round) \
  ::qcluster::trace::ScopedTraceContext var(trace_id, round)

#endif  // QCLUSTER_COMMON_TRACE_H_
