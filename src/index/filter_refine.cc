#include "index/filter_refine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/trace.h"
#include "core/invariants.h"
#include "linalg/simd.h"

namespace qcluster::index {

namespace {

/// Minimum points per shard, matching LinearScanIndex so the two indexes
/// shard identically and stay comparable in the bench output.
constexpr std::size_t kMinShardPoints = 1024;

/// Relative slack on the survivor test `lb · slack <= θ`. The contractive
/// bound holds in exact arithmetic; the computed lower bound can exceed the
/// computed exact distance by a few ulps of accumulated rounding, so the
/// comparison must absorb that before it is allowed to prune. 1e-9 is ~1e5
/// times the worst-case relative rounding of the d-term accumulations while
/// still pruning everything meaningfully farther than θ.
constexpr double kLowerBoundSlack = 1.0 - 1e-9;

/// Rows gathered per refinement sub-batch: bounds the per-thread gather
/// scratch while keeping the batched kernel amortized over survivor rows
/// that are scattered in the original block.
constexpr std::size_t kGatherRows = 256;

}  // namespace

FilterRefineIndex::FilterRefineIndex(linalg::FlatView view, int pca_dims,
                                     ThreadPool* pool)
    : view_(view), pca_dims_(pca_dims), pool_(pool), fallback_(view, pool) {}

int FilterRefineIndex::reduced_dims(int dim) const {
  QCLUSTER_CHECK(dim > 0);
  if (pca_dims_ > 0) return std::min(pca_dims_, dim);
  return std::max(1, dim / 4);
}

long long FilterRefineIndex::rebuilds() const {
  MutexLock lock(mu_);
  return rebuilds_;
}

ThreadPool& FilterRefineIndex::pool() const {
  return pool_ != nullptr ? *pool_ : ThreadPool::Global();
}

std::shared_ptr<const FilterRefineIndex::Projection>
FilterRefineIndex::CachedProjectionLocked(const QuadraticDecomposition& decomp,
                                          int reduced) const {
  if (cache_ == nullptr || cache_->reduced != reduced ||
      cache_->key_diagonals.size() != decomp.components.size()) {
    return nullptr;
  }
  for (std::size_t i = 0; i < decomp.components.size(); ++i) {
    const QuadraticComponent& c = decomp.components[i];
    if (c.diagonal.empty()) {
      if (!cache_->key_diagonals[i].empty() ||
          cache_->key_fulls[i] != c.full) {
        return nullptr;
      }
    } else if (cache_->key_diagonals[i] != c.diagonal) {
      return nullptr;
    }
  }
  return cache_;
}

std::shared_ptr<const FilterRefineIndex::Projection>
FilterRefineIndex::EnsureProjection(const QuadraticDecomposition& decomp,
                                    int reduced, bool* reused) const {
  if (reused != nullptr) *reused = false;
  {
    MutexLock lock(mu_);
    std::shared_ptr<const Projection> hit =
        CachedProjectionLocked(decomp, reduced);
    if (hit != nullptr) {
      if (reused != nullptr) *reused = true;
      return hit;
    }
  }

  // The metric's covariance structure changed (a new feedback round refits
  // the cluster ellipsoids): refit the per-component projectors and repack
  // the reduced block. Queries alone never trigger a rebuild — the
  // projector depends only on Aᵢ, so repeated queries under one metric
  // amortize this cost.
  QCLUSTER_TRACE_SPAN(span, "index.filter_refine.rebuild");
  span.AddAttr("components", decomp.components.size());
  span.AddAttr("reduced", reduced);
  QCLUSTER_TIMED("index.filter_refine.rebuild");
  auto built = std::make_shared<Projection>();
  built->reduced = reduced;
  built->projectors.reserve(decomp.components.size());
  for (const QuadraticComponent& c : decomp.components) {
    if (c.diagonal.empty()) {
      built->key_diagonals.emplace_back();
      built->key_fulls.push_back(c.full);
      built->projectors.push_back(
          linalg::Projector::Fit(c.full, view_, reduced));
    } else {
      built->key_diagonals.push_back(c.diagonal);
      built->key_fulls.emplace_back();
      built->projectors.push_back(
          linalg::Projector::FitDiagonal(c.diagonal, view_, reduced));
    }
    // An uncertified component (indefinite or near-singular full metric —
    // see Projector::contractive()) poisons the whole aggregate: the exact
    // kernel may snap its form to zero where any positive reduced distance
    // would over-prune. Cache the verdict and search exhaustively instead.
    built->usable = built->usable && built->projectors.back().contractive();
  }

  if (built->usable) {
    // Pack the projected database: row i is [P₀(xᵢ) | P₁(xᵢ) | ...], one
    // contiguous segment per component, so the filter scan stays a single
    // linear sweep.
    const std::size_t comps = decomp.components.size();
    const int width = static_cast<int>(comps) * reduced;
    linalg::AlignedBuffer data(view_.n * static_cast<std::size_t>(width));
    pool().ParallelFor(
        view_.n, kMinShardPoints,
        [&](int, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            double* out = data.data() + i * static_cast<std::size_t>(width);
            for (std::size_t j = 0; j < comps; ++j) {
              built->projectors[j].Project(
                  view_.row(i), out + j * static_cast<std::size_t>(reduced));
            }
          }
        });
    built->block =
        linalg::FlatBlock::FromRaw(std::move(data), view_.n, width);
  }

  MutexLock lock(mu_);
  // Another thread may have finished an equivalent rebuild while this one
  // ran unlocked; adopt theirs so concurrent callers converge on a single
  // projection and rebuilds_ counts installs, not racing refits.
  std::shared_ptr<const Projection> winner =
      CachedProjectionLocked(decomp, reduced);
  if (winner != nullptr) return winner;
  cache_ = std::move(built);
  ++rebuilds_;
  MetricAdd("index.filter_refine.rebuilds");
  return cache_;
}

std::vector<Neighbor> FilterRefineIndex::Search(const DistanceFunction& dist,
                                                int k,
                                                SearchStats* stats) const {
  return SearchImpl(dist, k, /*warm=*/nullptr, stats);
}

std::vector<Neighbor> FilterRefineIndex::SearchWarm(const DistanceFunction& dist,
                                                    int k, WarmStart& warm,
                                                    SearchStats* stats) const {
  return SearchImpl(dist, k, &warm, stats);
}

std::vector<Neighbor> FilterRefineIndex::SearchImpl(const DistanceFunction& dist,
                                                    int k, WarmStart* warm,
                                                    SearchStats* stats) const {
  QCLUSTER_CHECK(k > 0);
  QuadraticDecomposition decomp;
  if (!dist.Decompose(&decomp) || decomp.components.empty()) {
    // Opaque metric: no quadratic structure to lower-bound, scan everything
    // — warm-started when a session cache rides along, so even the fallback
    // keeps recording survivors and pruning at θ₀.
    MetricAdd("index.filter_refine.fallbacks");
    return warm != nullptr ? fallback_.SearchWarm(dist, k, *warm, stats)
                           : fallback_.Search(dist, k, stats);
  }
  QCLUSTER_CHECK(decomp.harmonic || decomp.components.size() == 1);

  QCLUSTER_TRACE_SPAN(span, "index.filter_refine.search");
  span.AddAttr("index", "filter_refine");
  span.AddAttr("k", k);
  QCLUSTER_TIMED("index.filter_refine.search");
  const bool metrics = MetricsEnabled();

  const std::size_t n = view_.n;
  if (n == 0) {
    FinishSearch("index.filter_refine", SearchStats{}, stats);
    if (warm != nullptr) warm->Record(dist, {});
    return {};
  }
  QCLUSTER_CHECK(dist.dim() == view_.dim);
  const int reduced = reduced_dims(view_.dim);
  bool projection_reused = false;
  const std::shared_ptr<const Projection> proj =
      EnsureProjection(decomp, reduced, &projection_reused);
  if (!proj->usable) {
    MetricAdd("index.filter_refine.fallbacks");
    return warm != nullptr ? fallback_.SearchWarm(dist, k, *warm, stats)
                           : fallback_.Search(dist, k, stats);
  }
  ThreadPool& tp = pool();

  // Warm seed: re-score the previous round's survivors under this round's
  // metric before the scan. θ₀ is a certified upper bound on the true k-th
  // distance, usually far tighter than the filter's own seed bound.
  const WarmStart::Seed warm_seed =
      warm != nullptr ? warm->Reseed(dist, k, view_) : WarmStart::Seed{};
  span.AddAttr("warm", warm_seed.valid() ? 1 : 0);

  // Project each component's query point into its reduced coordinates once.
  const std::size_t comps = decomp.components.size();
  std::vector<linalg::Vector> zq(comps);
  for (std::size_t j = 0; j < comps; ++j) {
    QCLUSTER_CHECK(static_cast<int>(decomp.components[j].query.size()) ==
                   view_.dim);
    zq[j] = proj->projectors[j].Project(decomp.components[j].query);
  }

  // Filter: a contractive lower bound for every point from the reduced
  // block, sharded exactly like the exhaustive scan.
  const linalg::FlatView reduced_view = proj->block.view();
  std::vector<double> lbs(n);
  {
    QCLUSTER_TRACE_SPAN(filter_span, "index.filter_refine.filter");
    // The projection shape lives here, not on the parent: SpanRecord holds
    // kMaxAttrs (6) attributes, and the parent span needs its slots for the
    // whole-search facts (candidates and refine_ratio were silently dropped
    // when these two rode on it).
    filter_span.AddAttr("reduced", reduced);
    filter_span.AddAttr("components", decomp.components.size());
    if (!decomp.harmonic) {
      // One quadratic form: the whole reduced row is the component segment,
      // so the existing batched Euclidean kernel scans it directly.
      const EuclideanDistance filter(zq[0]);
      tp.ParallelFor(n, kMinShardPoints,
                     [&](int, std::size_t begin, std::size_t end) {
                       filter.DistanceBatch(reduced_view.Slice(begin, end),
                                            lbs.data() + begin);
                     });
    } else {
      // Eq. 5 aggregate: per-cluster reduced distances combined with the same
      // α = −2 rule. The aggregate is monotone in each d²ᵢ, so feeding it
      // per-cluster lower bounds yields a lower bound on the whole metric.
      // The packed rows are exactly the segment layout the harmonic
      // segments kernel scans — per-segment Euclidean forms fused with the
      // combine, no per-point inner-loop dispatch.
      std::vector<linalg::simd::QuadComponentView> components(comps);
      for (std::size_t j = 0; j < comps; ++j) {
        components[j].query = zq[j].data();
        components[j].weight = decomp.components[j].weight;
      }
      const linalg::simd::HarmonicSpec spec{components.data(), comps,
                                            decomp.total_weight};
      tp.ParallelFor(
          n, kMinShardPoints, [&](int, std::size_t begin, std::size_t end) {
            const linalg::FlatView slice = reduced_view.Slice(begin, end);
            linalg::simd::Kernels().harmonic_segments_batch(
                spec, slice.data, slice.n, reduced, lbs.data() + begin);
          });
    }
  }

  // Seed: refine the k best lower-bound candidates exactly. They are real
  // database points, so their worst exact distance θ upper-bounds the true
  // k-th neighbor distance.
  //
  // On a metric-stable round (the projection cache matched, so only the
  // query moved) a valid warm certificate replaces the seed phase outright:
  // θ₀ is the k-th exact distance over last round's survivors re-scored
  // under *this* round's metric — a bound of exactly the seed phase's kind,
  // already in hand, and under query drift typically tighter than what the
  // reduced-space ranking would bootstrap. Any valid upper bound keeps the
  // survivor test exact (every true neighbor's lower bound is ≤ its exact
  // distance ≤ θ), so the returned top-k is byte-identical either way.
  // When the metric itself changed we keep the seed phase: θ₀ is still
  // certified but may be arbitrarily loose, and the seed bound caps the
  // refine cost.
  const bool skip_seed = warm_seed.valid() && projection_reused;
  span.AddAttr("seed_skipped", skip_seed ? 1 : 0);
  std::vector<Neighbor> seeds;
  double theta = skip_seed ? warm_seed.theta0 : 0.0;
  if (skip_seed) {
    MetricAdd("index.filter_refine.warm.seed_skips");
  } else {
    QCLUSTER_TRACE_SPAN(seed_span, "index.filter_refine.seed");
    BoundedTopK seed_top(std::min(k, static_cast<int>(n)));
    for (std::size_t i = 0; i < n; ++i) {
      seed_top.Push(Neighbor{static_cast<int>(i), lbs[i]});
    }
    seeds = std::move(seed_top).TakeSorted();
    std::vector<double> gathered(seeds.size() *
                                 static_cast<std::size_t>(view_.dim));
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      const double* src = view_.row(static_cast<std::size_t>(seeds[s].id));
      std::copy(src, src + view_.dim,
                gathered.begin() + s * static_cast<std::size_t>(view_.dim));
    }
    std::vector<double> exact(seeds.size());
    dist.DistanceBatch(
        linalg::FlatView{gathered.data(), seeds.size(), view_.dim},
        exact.data());
    for (double e : exact) theta = std::max(theta, e);
#ifndef NDEBUG
    // Theorem 1 / Eq. 17-19 spot-audit: the seeds are the sampled pairs for
    // which both the reduced and the exact distance are already in hand —
    // each lower bound must actually lower-bound its exact distance.
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      QCLUSTER_AUDIT(core::ValidateContractiveBound(
          seeds[s].distance, exact[s], "filter_refine seed bound"));
    }
#endif
  }

  // Warm tightening: both θ_seed and θ₀ upper-bound the true k-th distance
  // (the seeds and the cached survivors are real database points scored
  // exactly), so their min is an equally valid — and usually tighter —
  // survivor bound. Pruning below stays exact for the same reason as cold.
  const double theta_seed = theta;
  if (!skip_seed && warm_seed.valid()) {
    theta = std::min(theta, warm_seed.theta0);
  }

  // Survivors: every point whose lower bound cannot rule it out at θ. A θ
  // of exactly zero leaves the relative slack no room (a true zero-distance
  // point can carry an epsilon-positive computed bound), so refine
  // everything in that degenerate case.
  std::vector<int> survivors;
  if (theta <= 0.0) {
    survivors.resize(n);
    for (std::size_t i = 0; i < n; ++i) survivors[i] = static_cast<int>(i);
  } else {
    survivors.reserve(static_cast<std::size_t>(std::min<long long>(k, static_cast<long long>(n))) * 4);
    for (std::size_t i = 0; i < n; ++i) {
      if (lbs[i] * kLowerBoundSlack <= theta) {
        survivors.push_back(static_cast<int>(i));
      }
    }
  }

  // Extra pruning the warm certificate bought beyond the cold θ_seed cut —
  // the per-round win the warm.pruned_frac metric reports (the recount
  // only runs when the registry is on; it is an observability statistic).
  // When the seed phase was skipped there is no θ_seed to compare against,
  // so the gauge stays unrecorded — the seed_skips counter tells the story.
  double warm_pruned_frac = -1.0;
  if (metrics && !skip_seed && warm_seed.valid() && theta_seed > 0.0 &&
      theta < theta_seed) {
    std::size_t cold_survivors = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (lbs[i] * kLowerBoundSlack <= theta_seed) ++cold_survivors;
    }
    warm_pruned_frac = static_cast<double>(cold_survivors - survivors.size()) /
                       static_cast<double>(n);
  } else if (warm_seed.valid() && !skip_seed) {
    warm_pruned_frac = 0.0;
  }

  // Refine: exact full-dimension distances for the survivors only, gathered
  // into contiguous sub-batches for the metric's own kernel — the values
  // (and therefore ids, distances, and tie-breaks) are bit-identical to the
  // exhaustive scan's. Survivor order and shard boundaries depend only on
  // the scores and (m, threads), so any thread count merges identically.
  const std::size_t m = survivors.size();
  span.AddAttr("candidates", m);
  span.AddAttr("refine_ratio",
               static_cast<double>(m) / static_cast<double>(n));
  const int dim = view_.dim;
  const int shards = tp.ShardCount(m, kMinShardPoints);
  std::vector<Neighbor> merged;
  {
    QCLUSTER_TRACE_SPAN(refine_span, "index.filter_refine.refine");
    refine_span.AddAttr("candidates", m);
    refine_span.AddAttr("shards", shards);
    std::vector<std::vector<Neighbor>> shard_top(
        static_cast<std::size_t>(shards));
    tp.ParallelFor(
        m, kMinShardPoints, [&](int shard, std::size_t begin, std::size_t end) {
          // Reused across searches: per pool thread, so steady-state
          // refinement allocates nothing per shard.
          static thread_local std::vector<double> gathered;
          static thread_local std::vector<double> exact;
          BoundedTopK top(k);
          for (std::size_t c0 = begin; c0 < end; c0 += kGatherRows) {
            const std::size_t c1 = std::min(end, c0 + kGatherRows);
            const std::size_t rows = c1 - c0;
            gathered.resize(rows * static_cast<std::size_t>(dim));
            for (std::size_t r = 0; r < rows; ++r) {
              const double* src =
                  view_.row(static_cast<std::size_t>(survivors[c0 + r]));
              std::copy(src, src + dim,
                        gathered.begin() + r * static_cast<std::size_t>(dim));
            }
            exact.resize(rows);
            dist.DistanceBatch(linalg::FlatView{gathered.data(), rows, dim},
                               exact.data());
            for (std::size_t r = 0; r < rows; ++r) {
              top.Push(Neighbor{survivors[c0 + r], exact[r]});
            }
          }
          shard_top[static_cast<std::size_t>(shard)] =
              std::move(top).TakeSorted();
          QCLUSTER_AUDIT(core::ValidateSortedNeighbors(
              shard_top[static_cast<std::size_t>(shard)],
              "filter_refine shard top-k"));
        });

    std::size_t total = 0;
    for (const auto& t : shard_top) total += t.size();
    merged.reserve(total);
    for (auto& t : shard_top) merged.insert(merged.end(), t.begin(), t.end());
  }

  SearchStats local;
  local.distance_evaluations =
      static_cast<long long>(seeds.size() + m) + warm_seed.evaluations;
  FinishSearch("index.filter_refine", local, stats);
  if (metrics) {
    MetricAdd("index.filter_refine.candidates", static_cast<long long>(m));
    MetricRecord("index.filter_refine.refine_ratio",
                 static_cast<double>(m) / static_cast<double>(n));
  }
  std::vector<Neighbor> result = TopK(std::move(merged), k);
  if (warm != nullptr) warm->Record(dist, result);
  FinishWarmSearch("index.filter_refine", warm_seed, result, warm_pruned_frac);
  return result;
}

}  // namespace qcluster::index
