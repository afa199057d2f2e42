#include "session_loop.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/disjunctive_distance.h"
#include "eval/metrics.h"
#include "index/distance.h"

namespace qcluster::bench_e2e {
namespace {

using index::Neighbor;

/// Feedback rounds after the initial query, as in the paper's Sec. 5.
constexpr int kFeedbackRounds = 5;

/// The result contract every KnnIndex documents: min(k, n) in-range ids
/// with finite distances, strictly ascending by (distance, id).
bool WellFormed(const std::vector<Neighbor>& result, int k, int n) {
  if (result.size() != static_cast<std::size_t>(std::min(k, n))) return false;
  for (std::size_t i = 0; i < result.size(); ++i) {
    const Neighbor& r = result[i];
    if (r.id < 0 || r.id >= n || !std::isfinite(r.distance)) return false;
    if (i == 0) continue;
    const Neighbor& prev = result[i - 1];
    if (!(prev.distance < r.distance ||
          (prev.distance == r.distance && prev.id < r.id))) {
      return false;
    }
  }
  return true;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Byte-for-byte equality: the same ids and the same bits in every distance.
bool SameBytes(const std::vector<Neighbor>& a,
               const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || !SameBits(a[i].distance, b[i].distance)) {
      return false;
    }
  }
  return true;
}

/// Traced runs, sampled rounds: a cold Search of the bare index under the
/// round's metric (for index.warm_evals_ratio) and a one-thread
/// DistanceBatch over the whole block (for linalg.kernel_mpts_per_s). Both
/// must agree with the engine's answer, which passed WellFormed.
bool ProbeRound(const Lane& lane, const index::DistanceFunction& metric,
                const std::vector<Neighbor>& result, SpanRecorder* spans,
                std::vector<double>* scores, LoopResult* out) {
  const dataset::FeatureDatabase& db = *lane.space->db;
  index::SearchStats cold;
  std::vector<Neighbor> cold_result;
  {
    SpanScope span(spans, "probe.cold_search");
    cold_result = lane.space->index->Search(metric, lane.space->options.k,
                                            &cold);
  }
  out->cold_evals += cold.distance_evaluations;
  out->warm_evals += lane.engine->last_search_stats().distance_evaluations;

  scores->resize(static_cast<std::size_t>(db.size()));
  int kernel_span = -1;
  {
    SpanScope span(spans, "linalg.distance_batch");
    kernel_span = span.id();
    metric.DistanceBatch(db.flat_view(), scores->data());
  }
  spans->at(kernel_span).evals = db.size();

  bool ok = SameBytes(result, cold_result);
  for (const Neighbor& r : result) {
    ok = ok && SameBits((*scores)[static_cast<std::size_t>(r.id)], r.distance);
  }
  return ok;
}

}  // namespace

template <typename Call>
std::vector<Neighbor> ProbeIndex::Forward(const char* name,
                                          index::SearchStats* stats,
                                          const Call& call) const {
  index::SearchStats local;
  std::vector<Neighbor> result;
  int span_id = -1;
  {
    SpanScope span(spans_, name);
    span_id = span.id();
    result = call(&local);
  }
  if (spans_ != nullptr) {
    Span& span = spans_->at(span_id);
    span.evals = local.distance_evaluations;
    span.leaves = local.leaves_visited;
  }
  if (stats != nullptr) *stats += local;
  ++calls_;
  if (fault_ && calls_ % kFaultPeriod == 0 && result.size() >= 2) {
    if ((calls_ / kFaultPeriod) % 2 == 1) {
      result.pop_back();
    } else {
      std::swap(result[0], result[1]);
    }
  }
  return result;
}

std::vector<Neighbor> ProbeIndex::Search(const index::DistanceFunction& dist,
                                         int k,
                                         index::SearchStats* stats) const {
  return Forward("index.search", stats, [&](index::SearchStats* s) {
    return inner_->Search(dist, k, s);
  });
}

std::vector<Neighbor> ProbeIndex::SearchWarm(
    const index::DistanceFunction& dist, int k, index::WarmStart& warm,
    index::SearchStats* stats) const {
  return Forward("index.search_warm", stats, [&](index::SearchStats* s) {
    return inner_->SearchWarm(dist, k, warm, s);
  });
}

std::vector<Lane> MakeLanes(const Served& served, ThreadPool* serial_pool,
                            SpanRecorder* spans, bool fault) {
  std::vector<Lane> lanes;
  for (const Space& space : served.spaces) {
    Lane lane;
    lane.space = &space;
    const index::KnnIndex* knn = space.index.get();
    if (spans != nullptr || fault) {
      lane.probe = std::make_unique<ProbeIndex>(knn, spans, fault);
      knn = lane.probe.get();
    }
    lane.engine = std::make_unique<core::QclusterEngine>(
        &space.db->features(), knn, space.options);
    lane.oracle = std::make_unique<eval::OracleUser>(
        &space.db->categories(), &space.db->themes(), eval::OracleOptions{});
    lane.reference = std::make_unique<index::LinearScanIndex>(
        space.db->flat_view(), serial_pool);
    lanes.push_back(std::move(lane));
  }
  return lanes;
}

LoopResult RunSessions(std::vector<Lane>& lanes, const LoopConfig& config,
                       SpanRecorder* spans) {
  LoopResult out;
  std::vector<double> scores;
  std::unordered_set<int> seen;
  const std::size_t lane_count = lanes.size();
  const std::int64_t start = NowNs();
  std::int64_t active_ns = 0;
  for (long s = config.first_session; s < config.max_sessions; ++s) {
    if (config.seconds > 0.0 && s >= config.min_sessions &&
        static_cast<double>(NowNs() - start) * 1e-9 >= config.seconds) {
      break;
    }
    const auto slot = static_cast<std::size_t>(s);
    Lane& lane = lanes[slot % lane_count];
    const dataset::FeatureDatabase& db = *lane.space->db;
    const int n = db.size();
    const int k = lane.space->options.k;
    const auto query = static_cast<std::size_t>(
        config.queries[(slot / lane_count) % config.queries.size()]);
    const int category = db.categories()[query];
    const int theme = db.themes()[query];
    const linalg::Vector& example = db.features()[query];
    const bool sampled = config.sampled.contains(s);
    if (spans != nullptr) spans->set_session(s);
    SpanScope session(spans, "session");

    std::vector<Neighbor> result;
    std::int64_t t0 = NowNs();
    {
      SpanScope op(spans, "engine.initial_query");
      result = lane.engine->InitialQuery(example);
    }
    std::int64_t t1 = NowNs();
    active_ns += t1 - t0;
    out.initial_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    bool ok = WellFormed(result, k, n);
    if (ok && sampled) {
      ok = SameBytes(result, lane.reference->Search(
                                 index::EuclideanDistance(example), k));
    }
    ++out.attempted;
    if (!ok) ++out.failed;

    seen.clear();
    for (int round = 0; round < kFeedbackRounds; ++round) {
      t0 = NowNs();
      std::vector<core::RelevantItem> marked;
      {
        SpanScope judge(spans, "eval.judge");
        marked = lane.oracle->Judge(result, category, theme);
      }
      const std::int64_t judged = NowNs();
      if (marked.empty()) {
        active_ns += judged - t0;
        ++out.ended_early;
        break;
      }
      {
        SpanScope op(spans, "engine.feedback");
        result = lane.engine->Feedback(marked);
      }
      t1 = NowNs();
      active_ns += t1 - t0;
      out.feedback_ms.push_back(static_cast<double>(t1 - judged) * 1e-6);

      if (spans != nullptr) {
        ++out.feedback_rounds;
        for (const core::RelevantItem& item : marked) {
          if (seen.insert(item.id).second) ++out.new_points;
        }
        out.clusters += static_cast<long long>(lane.engine->clusters().size());
      }
      ok = WellFormed(result, k, n);
      if (ok && sampled) {
        const core::DisjunctiveDistance metric = lane.engine->CurrentDistance();
        ok = SameBytes(result, lane.reference->Search(metric, k));
        if (ok && spans != nullptr) {
          ok = ProbeRound(lane, metric, result, spans, &scores, &out);
        }
      }
      ++out.attempted;
      if (!ok) ++out.failed;
    }

    if (s < config.recall_sessions) {
      const auto relevant = [&](int id) {
        return lane.oracle->IsRelevant(id, category);
      };
      out.recall_sum += eval::RecallAt(
          result, k, lane.oracle->CategorySize(category), relevant);
      ++out.recall_count;
    }
    ++out.sessions;
  }
  if (spans != nullptr) spans->set_session(-1);
  out.active_s = static_cast<double>(active_ns) * 1e-9;
  return out;
}

void Append(const LoopResult& part, LoopResult* total) {
  total->sessions += part.sessions;
  total->ended_early += part.ended_early;
  total->attempted += part.attempted;
  total->failed += part.failed;
  total->active_s += part.active_s;
  total->initial_ms.insert(total->initial_ms.end(), part.initial_ms.begin(),
                           part.initial_ms.end());
  total->feedback_ms.insert(total->feedback_ms.end(), part.feedback_ms.begin(),
                            part.feedback_ms.end());
  total->recall_sum += part.recall_sum;
  total->recall_count += part.recall_count;
  total->feedback_rounds += part.feedback_rounds;
  total->new_points += part.new_points;
  total->clusters += part.clusters;
  total->warm_evals += part.warm_evals;
  total->cold_evals += part.cold_evals;
}

}  // namespace qcluster::bench_e2e
