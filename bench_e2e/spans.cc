#include "spans.h"

#include <cstdio>

#include "common/check.h"

namespace qcluster::bench_e2e {

SpanRecorder::SpanRecorder() : origin_ns_(NowNs()) {
  // Room for a paper-sized traced run (~150k spans) without regrowth.
  spans_.reserve(std::size_t{1} << 18);
}

int SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.session = session_;
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  // Read the clock last, so the bookkeeping above stays outside the span.
  spans_.back().start_ns = NowNs();
  return id;
}

void SpanRecorder::End(int span) {
  const std::int64_t now = NowNs();
  QCLUSTER_CHECK(!open_.empty() && open_.back() == span);
  open_.pop_back();
  at(span).end_ns = now;
}

std::vector<std::int64_t> SpanRecorder::SelfNs() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.duration_ns();
    }
  }
  return self;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"parent\":%d,\"session\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld",
                 i, s.parent, static_cast<long long>(s.session), s.name,
                 static_cast<long long>(s.start_ns - origin_ns_),
                 static_cast<long long>(s.end_ns - origin_ns_));
    if (s.evals >= 0) {
      std::fprintf(out, ",\"evals\":%lld", static_cast<long long>(s.evals));
    }
    if (s.leaves >= 0) {
      std::fprintf(out, ",\"leaves\":%lld", static_cast<long long>(s.leaves));
    }
    std::fputs("}\n", out);
  }
  const bool written = std::ferror(out) == 0;
  return std::fclose(out) == 0 && written;
}

}  // namespace qcluster::bench_e2e
