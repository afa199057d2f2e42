// Benchmark-owned spans for the traced run. Spans are recorded only around
// public library calls made from this directory's files; the library's own
// trace recorder stays off.
#ifndef QCLUSTER_BENCH_E2E_SPANS_H_
#define QCLUSTER_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qcluster::bench_e2e {

/// The one clock every op timer and span reads: steady, in nanoseconds.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. `name` is a static string.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            ///< Index of the enclosing span; -1 for a root.
  std::int64_t session = -1;  ///< Feedback session id; -1 outside sessions.
  /// Index searches: distance evaluations; linalg probes: points scored.
  std::int64_t evals = -1;
  std::int64_t leaves = -1;  ///< Index searches: leaves visited.

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Single-threaded in-memory span store. A span begun while another is open
/// becomes its child, and spans close in LIFO order. Nothing is written
/// until WriteJsonl, which bench_e2e calls once, at exit.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span and returns its index.
  int Begin(const char* name);
  /// Closes `span`, which must be the innermost open span.
  void End(int span);

  /// Session id stamped on the spans begun from now on.
  void set_session(std::int64_t session) { session_ = session; }

  /// Valid until the next Begin.
  Span& at(int span) { return spans_[static_cast<std::size_t>(span)]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's self time: its duration minus the part its children cover
  /// (on one thread, the children of a span never overlap).
  std::vector<std::int64_t> SelfNs() const;

  /// Writes one JSON object per line, times relative to the recorder's
  /// creation. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t session_ = -1;
};

/// RAII span; does nothing when `recorder` is null, as in untraced runs.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace qcluster::bench_e2e

#endif  // QCLUSTER_BENCH_E2E_SPANS_H_
