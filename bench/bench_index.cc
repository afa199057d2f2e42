// Index micro-benchmarks: BR-tree best-first k-NN vs exhaustive scan, under
// the metrics the retrieval methods actually issue (Euclidean, weighted
// Euclidean, disjunctive aggregate), plus the warm-started refinement
// search that powers Fig. 7's cost savings.
//
// The BM_LinearScan{Scalar,Batch}* family tracks the batched-scoring
// pipeline PR-over-PR: scalar is the pre-batch reference loop (virtual
// Distance per point over pointer-chased vectors, materialize everything,
// nth_element), batch is the sharded SoA path at 1/2/4/hardware threads.
// Each variant records its scan throughput as a
// `bench.linear_scan.<variant>.points_per_sec[.tN]` gauge, so the numbers
// land in BENCH_bench_index.json. The BM_BrTree* families record
// `bench.br_tree.<family>.points_per_sec` and the per-search work gauges
// `.evals`, `.nodes` and `.leaves`.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/disjunctive_distance.h"
#include "dataset/synthetic_gaussian.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"
#include "linalg/flat_view.h"
#include "linalg/simd.h"

namespace {

using qcluster::bench::BenchScale;
using qcluster::dataset::FeatureDatabase;

const FeatureDatabase& Features() {
  static const FeatureDatabase* db = [] {
    return new FeatureDatabase(qcluster::bench::BuildFeatures(
        qcluster::dataset::FeatureType::kColorMoments,
        BenchScale::FromEnv()));
  }();
  return *db;
}

const qcluster::index::BrTree& Tree() {
  static const auto* tree = new qcluster::index::BrTree(&Features().features());
  return *tree;
}

const qcluster::index::LinearScanIndex& Scan() {
  static const auto* scan =
      new qcluster::index::LinearScanIndex(Features().features().view());
  return *scan;
}

void BM_LinearScanEuclidean(benchmark::State& state) {
  const FeatureDatabase& db = Features();
  const qcluster::index::EuclideanDistance dist(db.features()[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Scan().Search(dist, 100));
  }
}

const std::vector<qcluster::core::Cluster>& BenchClusters() {
  static const auto* clusters = [] {
    const FeatureDatabase& db = Features();
    auto* out = new std::vector<qcluster::core::Cluster>();
    for (int c = 0; c < 3; ++c) {
      qcluster::core::Cluster cluster(db.dim());
      for (int i = 0; i < 20; ++i) {
        cluster.Add(db.features()[static_cast<std::size_t>(c * 400 + i)], 1.0);
      }
      out->push_back(std::move(cluster));
    }
    return out;
  }();
  return *clusters;
}

qcluster::core::DisjunctiveDistance MakeDisjunctive() {
  return qcluster::core::DisjunctiveDistance(
      BenchClusters(), qcluster::stats::CovarianceScheme::kDiagonal, 1e-4);
}

void BM_LinearScanDisjunctive(benchmark::State& state) {
  const auto dist = MakeDisjunctive();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Scan().Search(dist, 100));
  }
}

// ---------------------------------------------------------------------------
// Scan-throughput trajectory: scalar reference vs the batched pipeline.

/// The color features in the seed's pointer-chased layout, one Vector per
/// point, unpacked from the block once. Only the two seed reference loops
/// below read it: they measure the layout the batched pipeline replaced.
const std::vector<qcluster::linalg::Vector>& SeedLayoutFeatures() {
  static const auto* rows = [] {
    const qcluster::linalg::FlatBlock& block = Features().features();
    auto* out = new std::vector<qcluster::linalg::Vector>();
    for (std::size_t i = 0; i < block.size(); ++i) out->push_back(block[i]);
    return out;
  }();
  return *rows;
}

/// The seed's scoring loop, kept verbatim as the baseline: one virtual
/// per-point call per pointer-chased point, all n neighbors materialized,
/// then TopK's nth_element.
std::vector<qcluster::index::Neighbor> ScalarReferenceScan(
    const std::vector<qcluster::linalg::Vector>& pts,
    const qcluster::index::DistanceFunction& dist, int k) {
  std::vector<qcluster::index::Neighbor> all;
  all.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    all.push_back(
        qcluster::index::Neighbor{static_cast<int>(i), dist.Distance(pts[i])});
  }
  return qcluster::index::TopK(std::move(all), k);
}

/// The seed's DisjunctiveDistance scoring, preserved verbatim as the
/// trajectory anchor: per point it allocated a d2 vector plus one diff
/// vector per cluster before aggregating Eq. 5. The batched kernels exist
/// to eliminate exactly this per-point churn, so the seed loop has to stay
/// measurable after the rewrite.
class SeedDisjunctiveScorer {
 public:
  SeedDisjunctiveScorer(const std::vector<qcluster::core::Cluster>& clusters,
                        double min_variance)
      : total_weight_(0.0) {
    for (const auto& c : clusters) {
      centroids_.push_back(c.centroid());
      weights_.push_back(c.weight());
      inverse_covs_.push_back(c.InverseCovariance(
          qcluster::stats::CovarianceScheme::kDiagonal, min_variance));
      total_weight_ += c.weight();
    }
  }

  double Distance(const qcluster::linalg::Vector& x) const {
    std::vector<double> d2(centroids_.size());
    for (std::size_t i = 0; i < centroids_.size(); ++i) {
      const qcluster::linalg::Vector diff = qcluster::linalg::Sub(
          x, centroids_[i]);
      d2[i] = qcluster::linalg::QuadraticForm(diff, inverse_covs_[i], diff);
    }
    double denom = 0.0;
    for (std::size_t i = 0; i < d2.size(); ++i) {
      if (d2[i] <= 0.0) return 0.0;
      denom += weights_[i] / d2[i];
    }
    if (denom <= 0.0) return std::numeric_limits<double>::infinity();
    return total_weight_ / denom;
  }

 private:
  std::vector<qcluster::linalg::Vector> centroids_;
  std::vector<double> weights_;
  std::vector<qcluster::linalg::Matrix> inverse_covs_;
  double total_weight_;
};

/// Times `body` over the benchmark loop and records points/sec under
/// `<metric>.points_per_sec` in the metrics registry (and thus in
/// BENCH_bench_index.json). `n` is the database size one call scans.
template <typename Body>
void RunThroughputMetric(benchmark::State& state, const std::string& metric,
                         std::size_t n, const Body& body) {
  long long iterations = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(body());
    ++iterations;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (seconds > 0.0 && iterations > 0) {
    const double pps =
        static_cast<double>(n) * static_cast<double>(iterations) / seconds;
    qcluster::MetricGauge(metric + ".points_per_sec", pps);
    state.counters["points_per_sec"] =
        benchmark::Counter(pps, benchmark::Counter::kDefaults);
  }
}

/// Records one BR-tree search's exact work as
/// `bench.br_tree.<label>.{evals,nodes,leaves}` gauges, deterministic at a
/// fixed seed and scale, which bench/check_regression.py gates for
/// equality.
void RecordBrTreeWork(const std::string& label,
                      const qcluster::index::SearchStats& work) {
  const std::string metric = "bench.br_tree." + label;
  qcluster::MetricGauge(metric + ".evals",
                        static_cast<double>(work.distance_evaluations));
  qcluster::MetricGauge(metric + ".nodes",
                        static_cast<double>(work.nodes_visited));
  qcluster::MetricGauge(metric + ".leaves",
                        static_cast<double>(work.leaves_visited));
}

/// The BR-tree families: `search(stats)` runs one search (accumulating its
/// cost into `stats` when non-null). Records that search's work gauges,
/// then times the search under the scan's points_per_sec convention
/// (database points served per second).
template <typename Search>
void RunBrTree(benchmark::State& state, const std::string& label,
               const Search& search) {
  qcluster::index::SearchStats work;
  benchmark::DoNotOptimize(search(&work));
  RecordBrTreeWork(label, work);
  RunThroughputMetric(state, "bench.br_tree." + label,
                      Features().features().size(),
                      [&] { return search(nullptr); });
}

void BM_BrTreeEuclidean(benchmark::State& state) {
  const qcluster::index::EuclideanDistance dist(Features().features()[0]);
  RunBrTree(state, "euclidean", [&](qcluster::index::SearchStats* stats) {
    return Tree().Search(dist, 100, stats);
  });
}

void BM_BrTreeDisjunctive(benchmark::State& state) {
  const auto dist = MakeDisjunctive();
  RunBrTree(state, "disjunctive", [&](qcluster::index::SearchStats* stats) {
    return Tree().Search(dist, 100, stats);
  });
}

void BM_BrTreeWarmRefinement(benchmark::State& state) {
  // Cold query then a refined (slightly moved) query through the first
  // query's session cache, whose leaf pages it does not read again — the
  // feedback-iteration pattern. One iteration times both searches; the work
  // gauges count the warm one.
  using qcluster::index::EuclideanDistance;
  const qcluster::linalg::Vector& q = Features().features()[0];
  qcluster::linalg::Vector q2 = q;
  q2[0] += 0.05;
  RunBrTree(state, "warm_refinement", [&](qcluster::index::SearchStats* stats) {
    qcluster::index::WarmStart cache;
    const EuclideanDistance first(q);
    qcluster::DiscardResult(Tree().SearchWarm(first, 100, cache));
    return Tree().SearchWarm(EuclideanDistance(q2), 100, cache, stats);
  });
}

void BM_BrTreeWarmUnchangedMetric(benchmark::State& state) {
  // A feedback round that added no point rebuilds the same metric: a cold
  // search, then that metric rebuilt and asked again through SearchWarm,
  // which the session cache answers without a search. The work gauges read
  // 0 while reuse holds; no points_per_sec is exported, as no point is
  // served by the index. The timed loop is the reuse alone.
  qcluster::index::WarmStart cache;
  qcluster::DiscardResult(Tree().SearchWarm(MakeDisjunctive(), 100, cache));
  const auto again = MakeDisjunctive();
  qcluster::index::SearchStats work;
  qcluster::DiscardResult(Tree().SearchWarm(again, 100, cache, &work));
  RecordBrTreeWork("warm_unchanged", work);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tree().SearchWarm(again, 100, cache));
  }
}

/// The linear-scan trajectory family's label convention.
template <typename Body>
void RunThroughput(benchmark::State& state, const std::string& label,
                   const Body& body) {
  RunThroughputMetric(state, "bench.linear_scan." + label,
                      Features().features().size(), body);
}

qcluster::ThreadPool& PoolWithThreads(int threads) {
  // One static pool per benchmarked size; workers persist across runs.
  static std::map<int, qcluster::ThreadPool*>* pools =
      new std::map<int, qcluster::ThreadPool*>();
  auto [it, inserted] = pools->try_emplace(threads, nullptr);
  if (inserted) it->second = new qcluster::ThreadPool(threads);
  return *it->second;
}

void BM_LinearScanScalarEuclidean(benchmark::State& state) {
  const std::vector<qcluster::linalg::Vector>& pts = SeedLayoutFeatures();
  const qcluster::index::EuclideanDistance dist(pts[0]);
  RunThroughput(state, "scalar_euclidean",
                [&] { return ScalarReferenceScan(pts, dist, 100); });
}

void BM_LinearScanScalarDisjunctive(benchmark::State& state) {
  const std::vector<qcluster::linalg::Vector>& pts = SeedLayoutFeatures();
  const auto dist = MakeDisjunctive();
  RunThroughput(state, "scalar_disjunctive",
                [&] { return ScalarReferenceScan(pts, dist, 100); });
}

void BM_LinearScanSeedDisjunctive(benchmark::State& state) {
  const std::vector<qcluster::linalg::Vector>& pts = SeedLayoutFeatures();
  const SeedDisjunctiveScorer seed(BenchClusters(), 1e-4);
  RunThroughput(state, "seed_disjunctive", [&] {
    std::vector<qcluster::index::Neighbor> all;
    all.reserve(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      all.push_back(qcluster::index::Neighbor{static_cast<int>(i),
                                              seed.Distance(pts[i])});
    }
    return qcluster::index::TopK(std::move(all), 100);
  });
}

void BM_LinearScanBatchEuclidean(benchmark::State& state) {
  const FeatureDatabase& db = Features();
  const int threads = static_cast<int>(state.range(0));
  qcluster::index::LinearScanIndex scan(db.features().view(),
                                        &PoolWithThreads(threads));
  const qcluster::index::EuclideanDistance dist(db.features()[0]);
  RunThroughput(state, "batch_euclidean.t" + std::to_string(threads),
                [&] { return scan.Search(dist, 100); });
}

void BM_LinearScanBatchDisjunctive(benchmark::State& state) {
  const FeatureDatabase& db = Features();
  const int threads = static_cast<int>(state.range(0));
  qcluster::index::LinearScanIndex scan(db.features().view(),
                                        &PoolWithThreads(threads));
  const auto dist = MakeDisjunctive();
  RunThroughput(state, "batch_disjunctive.t" + std::to_string(threads),
                [&] { return scan.Search(dist, 100); });
}


// ---------------------------------------------------------------------------
// Wide (d = 32) synthetic workload for the kernel-tier family below: 40
// elliptical categories of 500 points, wider than one SIMD lane group.

constexpr int kWideDim = 32;
constexpr int kWideCategories = 40;
constexpr int kWidePointsPerCategory = 500;
/// The retrieval-realistic shape: the user's relevant images form a few
/// query clusters inside a database of many categories.
constexpr int kWideQueryClusters[] = {0, 17, 34};

/// kWideCategories elliptical categories of kWidePointsPerCategory points
/// in `dim` dimensions.
std::vector<qcluster::linalg::Vector> CategoryPoints(int dim) {
  qcluster::dataset::GaussianClustersOptions opt;
  opt.dim = dim;
  opt.num_clusters = kWideCategories;
  opt.points_per_cluster = kWidePointsPerCategory;
  opt.inter_cluster_distance = 6.0;
  opt.shape = qcluster::dataset::ClusterShape::kElliptical;
  qcluster::Rng rng(20030612);
  return qcluster::dataset::GenerateGaussianClusters(opt, rng).points;
}

const std::vector<qcluster::linalg::Vector>& WideFeatures() {
  static const auto* points =
      new std::vector<qcluster::linalg::Vector>(CategoryPoints(kWideDim));
  return *points;
}

/// A 3-way disjunctive metric over `pts` under `scheme`, built the same way
/// the engine builds one after feedback: each query cluster summarizes 20
/// marked members of one category.
qcluster::core::DisjunctiveDistance QueryClusters(
    const std::vector<qcluster::linalg::Vector>& pts,
    qcluster::stats::CovarianceScheme scheme) {
  std::vector<qcluster::core::Cluster> clusters;
  for (int c : kWideQueryClusters) {
    qcluster::core::Cluster cluster(static_cast<int>(pts.front().size()));
    for (int i = 0; i < 20; ++i) {
      cluster.Add(
          pts[static_cast<std::size_t>(c * kWidePointsPerCategory + i)], 1.0);
    }
    clusters.push_back(std::move(cluster));
  }
  return qcluster::core::DisjunctiveDistance(clusters, scheme, 1e-4);
}

// ---------------------------------------------------------------------------
// Kernel-level family: raw DistanceBatch throughput per metric per SIMD
// dispatch tier, with the tier forced through SetTier (QCLUSTER_SIMD forces
// the same thing process-wide for full runs). Tiers are byte-identical by
// contract, so these gauges isolate pure vectorization speedup:
// `bench.kernel.<metric>.<tier>.points_per_sec`. The wide (d = 32) workload
// is used rather than the 3-dim color features: below one lane width the
// kernels are all tail path and the tiers measure identically, so d = 32 is
// what separates them. Unavailable tiers (e.g. avx2 on an old host) run an
// empty loop and record nothing.

const qcluster::linalg::FlatBlock& PackedFeatures() {
  static const auto* block = new qcluster::linalg::FlatBlock(
      qcluster::linalg::FlatBlock::FromPoints(WideFeatures()));
  return *block;
}

/// The full-covariance arm's shape (Fig. 6, bench_e2e's wide-full): the
/// same categories in d = 16, where Eq. 5 scores dense d × d forms.
constexpr int kFullDim = 16;

const std::vector<qcluster::linalg::Vector>& FullFeatures() {
  static const auto* points =
      new std::vector<qcluster::linalg::Vector>(CategoryPoints(kFullDim));
  return *points;
}

const qcluster::linalg::FlatBlock& PackedFullFeatures() {
  static const auto* block = new qcluster::linalg::FlatBlock(
      qcluster::linalg::FlatBlock::FromPoints(FullFeatures()));
  return *block;
}

template <typename MakeDist>
void RunKernelTier(benchmark::State& state, const std::string& metric,
                   const qcluster::linalg::FlatBlock& block,
                   const MakeDist& make_dist) {
  const auto tier = static_cast<qcluster::linalg::simd::Tier>(state.range(0));
  if (!qcluster::linalg::simd::SetTier(tier)) {
    for (auto _ : state) {
    }
    return;
  }
  const auto dist = make_dist();
  std::vector<double> out(block.size());
  RunThroughputMetric(
      state,
      "bench.kernel." + metric + "." + qcluster::linalg::simd::TierName(tier),
      block.size(), [&] {
        dist.DistanceBatch(block.view(), out.data());
        return out[0];
      });
  qcluster::linalg::simd::ResetTierFromEnv();
}

void BM_KernelEuclidean(benchmark::State& state) {
  RunKernelTier(state, "euclidean", PackedFeatures(), [] {
    return qcluster::index::EuclideanDistance(WideFeatures()[0]);
  });
}

void BM_KernelWeighted(benchmark::State& state) {
  RunKernelTier(state, "weighted", PackedFeatures(), [] {
    qcluster::linalg::Vector w(static_cast<std::size_t>(kWideDim));
    qcluster::Rng rng(991);
    for (double& x : w) x = rng.Uniform(0.1, 4.0);
    return qcluster::index::MahalanobisDistance(
        WideFeatures()[0], qcluster::linalg::Matrix::Diagonal(w));
  });
}

void BM_KernelMahalanobisFull(benchmark::State& state) {
  RunKernelTier(state, "mahalanobis_full", PackedFeatures(), [] {
    qcluster::linalg::Matrix g(kWideDim, kWideDim);
    qcluster::Rng rng(992);
    for (int r = 0; r < kWideDim; ++r) {
      for (int c = 0; c < kWideDim; ++c) g(r, c) = rng.Gaussian();
    }
    qcluster::linalg::Matrix a = g.Transposed().Multiply(g).Scale(0.1);
    a.AddToDiagonal(1.0);
    return qcluster::index::MahalanobisDistance(WideFeatures()[0], a);
  });
}

void BM_KernelDisjunctive(benchmark::State& state) {
  RunKernelTier(state, "disjunctive", PackedFeatures(), [] {
    return QueryClusters(WideFeatures(),
                         qcluster::stats::CovarianceScheme::kDiagonal);
  });
}

/// Eq. 5 over three full-covariance (inverse scheme) clusters at d = 16:
/// the dense quadratic-form kernel that dominates a full-covariance round.
void BM_KernelDisjunctiveFull(benchmark::State& state) {
  RunKernelTier(state, "disjunctive_full", PackedFullFeatures(), [] {
    return QueryClusters(FullFeatures(),
                         qcluster::stats::CovarianceScheme::kInverse);
  });
}

/// The same disjunctive DistanceBatch on the real 3-dim color features:
/// the row-lane scheme vectorizes the batch axis, so the narrow workload
/// speeds up too — this gauge tracks it directly, without the top-k merge
/// the `bench.linear_scan.batch_disjunctive.*` scan numbers include.
void BM_KernelDisjunctiveNarrow(benchmark::State& state) {
  const auto tier = static_cast<qcluster::linalg::simd::Tier>(state.range(0));
  if (!qcluster::linalg::simd::SetTier(tier)) {
    for (auto _ : state) {
    }
    return;
  }
  const qcluster::linalg::FlatBlock* narrow = &Features().features();
  const auto dist = MakeDisjunctive();
  std::vector<double> out(narrow->size());
  RunThroughputMetric(
      state,
      std::string("bench.kernel_d3.disjunctive.") +
          qcluster::linalg::simd::TierName(tier),
      narrow->size(), [&] {
        dist.DistanceBatch(narrow->view(), out.data());
        return out[0];
      });
  qcluster::linalg::simd::ResetTierFromEnv();
}

/// One benchmark instance per dispatch tier (0 scalar, 1 sse2/neon, 2 avx2).
void TierSweep(benchmark::internal::Benchmark* b) {
  b->Arg(0)->Arg(1)->Arg(2);
}

// ---------------------------------------------------------------------------
// Feedback-round replay family: a six-round relevance-feedback session
// (t = 0..5) served by the batched linear scan, cold vs warm-started from
// the previous round's answer. The replay workload uses its own
// database — 20 categories x 500 points at d = 64 (image-descriptor scale,
// Fig. 6 sizes its features similarly), where a dense d x d exact distance
// dominates a served round. The refined query point moves every round
// while the learned metric matrix is stable; the metric still *changes*
// every round (the query is part of the quadratic decomposition), so the
// WarmStart key mismatches and every warm round re-scores the previous
// answer for its θ₀.
//
// Each round records `bench.warm_replay.<label>.t<t>.{points_per_sec,
// candidates}` (candidates = exact distance evaluations, seeds included).

constexpr int kReplayRounds = 6;
constexpr int kReplayDim = 64;
constexpr int kReplayCategories = 20;
constexpr int kReplayPerCategory = 500;

const qcluster::linalg::FlatBlock& ReplayFeatures() {
  static const auto* points = [] {
    qcluster::dataset::GaussianClustersOptions opt;
    opt.dim = kReplayDim;
    opt.num_clusters = kReplayCategories;
    opt.points_per_cluster = kReplayPerCategory;
    opt.inter_cluster_distance = 6.0;
    opt.shape = qcluster::dataset::ClusterShape::kElliptical;
    qcluster::Rng rng(9153);
    return new qcluster::linalg::FlatBlock(
        qcluster::linalg::FlatBlock::FromPoints(
            qcluster::dataset::GenerateGaussianClusters(opt, rng).points));
  }();
  return *points;
}

/// The drifting refined query: starts at a member of the first category
/// and moves a small step each round, the way successive feedback rounds
/// re-center the query — far smaller than the intra-cluster spread, so
/// successive top-k sets overlap heavily and the cached candidates stay
/// relevant.
qcluster::linalg::Vector ReplayQuery(int t) {
  qcluster::linalg::Vector q = ReplayFeatures()[0];
  q[0] += 0.03 * t;
  q[1] -= 0.02 * t;
  return q;
}

/// Query-drift rounds under a fixed dense metric (Fig. 6's full scheme):
/// A = 0.5 I + 24.5 (uu' + vv') with u ⊥ v — two strongly stretched
/// "learned" axes over an isotropic floor, the shape relevance feedback
/// actually produces once a couple of discriminative directions dominate.
/// Each exact distance costs a dense d x d quadratic form.
const qcluster::index::MahalanobisDistance& ReplayFullMetric(int t) {
  static const auto* a = [] {
    qcluster::Rng rng(781);
    qcluster::linalg::Vector u(static_cast<std::size_t>(kReplayDim));
    qcluster::linalg::Vector v(static_cast<std::size_t>(kReplayDim));
    for (int d = 0; d < kReplayDim; ++d) {
      u[static_cast<std::size_t>(d)] = rng.Gaussian();
      v[static_cast<std::size_t>(d)] = rng.Gaussian();
    }
    auto normalize = [](qcluster::linalg::Vector& x) {
      double norm2 = 0.0;
      for (double e : x) norm2 += e * e;
      const double inv = 1.0 / std::sqrt(norm2);
      for (double& e : x) e *= inv;
    };
    normalize(u);
    double uv = 0.0;
    for (int d = 0; d < kReplayDim; ++d) {
      uv += u[static_cast<std::size_t>(d)] * v[static_cast<std::size_t>(d)];
    }
    for (int d = 0; d < kReplayDim; ++d) {
      v[static_cast<std::size_t>(d)] -= uv * u[static_cast<std::size_t>(d)];
    }
    normalize(v);
    auto* m = new qcluster::linalg::Matrix(kReplayDim, kReplayDim);
    for (int r = 0; r < kReplayDim; ++r) {
      for (int c = 0; c < kReplayDim; ++c) {
        (*m)(r, c) = 24.5 * (u[static_cast<std::size_t>(r)] *
                                 u[static_cast<std::size_t>(c)] +
                             v[static_cast<std::size_t>(r)] *
                                 v[static_cast<std::size_t>(c)]);
      }
      (*m)(r, r) += 0.5;
    }
    return m;
  }();
  static const auto* metrics = [] {
    auto* out = new std::vector<qcluster::index::MahalanobisDistance>();
    for (int t = 0; t < kReplayRounds; ++t) {
      out->emplace_back(ReplayQuery(t), *a);
    }
    return out;
  }();
  return (*metrics)[static_cast<std::size_t>(t)];
}

/// Runs the six-round session once per benchmark iteration (fresh cache each
/// iteration, so t = 0 stays a true cold start) and records per-round
/// throughput and exact-distance candidate counts.
template <typename RoundBody>
void RunReplay(benchmark::State& state, const std::string& label,
               const RoundBody& run_round) {
  const std::size_t n = ReplayFeatures().size();
  std::vector<double> secs(kReplayRounds, 0.0);
  std::vector<double> evals(kReplayRounds, 0.0);
  long long iterations = 0;
  for (auto _ : state) {
    qcluster::index::WarmStart cache;
    for (int t = 0; t < kReplayRounds; ++t) {
      qcluster::index::SearchStats stats;
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(run_round(t, cache, &stats));
      secs[t] += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      evals[t] += static_cast<double>(stats.distance_evaluations);
    }
    ++iterations;
  }
  if (iterations == 0) return;
  double tail_seconds = 0.0;
  for (int t = 0; t < kReplayRounds; ++t) {
    const std::string prefix =
        "bench.warm_replay." + label + ".t" + std::to_string(t);
    if (secs[t] > 0.0) {
      qcluster::MetricGauge(prefix + ".points_per_sec",
                            static_cast<double>(n) *
                                static_cast<double>(iterations) / secs[t]);
    }
    qcluster::MetricGauge(prefix + ".candidates",
                          evals[t] / static_cast<double>(iterations));
    if (t >= 1) tail_seconds += secs[t];
  }
  // Headline: steady-state feedback-round (t >= 1) throughput.
  if (tail_seconds > 0.0) {
    state.counters["round_pps"] = benchmark::Counter(
        static_cast<double>(n) * static_cast<double>(iterations) *
            (kReplayRounds - 1) / tail_seconds,
        benchmark::Counter::kDefaults);
  }
}

constexpr int kReplayK = 100;  // The paper's round size.

void BM_ReplayLinearScanCold(benchmark::State& state) {
  const auto& pts = ReplayFeatures();
  const qcluster::index::LinearScanIndex scan(pts.view(), &PoolWithThreads(1));
  RunReplay(state, "scan.cold",
            [&](int t, qcluster::index::WarmStart&,
                qcluster::index::SearchStats* stats) {
              return scan.Search(ReplayFullMetric(t), kReplayK, stats);
            });
}

void BM_ReplayLinearScanWarm(benchmark::State& state) {
  const auto& pts = ReplayFeatures();
  const qcluster::index::LinearScanIndex scan(pts.view(), &PoolWithThreads(1));
  {
    qcluster::index::WarmStart check;
    for (int t = 0; t < kReplayRounds; ++t) {
      QCLUSTER_CHECK(scan.SearchWarm(ReplayFullMetric(t), kReplayK, check) ==
                     scan.Search(ReplayFullMetric(t), kReplayK));
    }
  }
  // The scan always evaluates every point; θ₀ saves only the heap
  // admissions of the points it rejects. Here that is within noise, while
  // on the served 100k-point `wide` scan deleting θ₀ cost +7.5% feedback
  // p50 (docs/PERFORMANCE.md, "Cross-round session cache").
  RunReplay(state, "scan.warm",
            [&](int t, qcluster::index::WarmStart& cache,
                qcluster::index::SearchStats* stats) {
              return scan.SearchWarm(ReplayFullMetric(t), kReplayK, cache,
                                     stats);
            });
}

void ThreadSweep(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4);
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (hw != 1 && hw != 2 && hw != 4) b->Arg(hw);
}

BENCHMARK(BM_LinearScanScalarEuclidean)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LinearScanScalarDisjunctive)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LinearScanSeedDisjunctive)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LinearScanBatchEuclidean)
    ->Apply(ThreadSweep)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LinearScanBatchDisjunctive)
    ->Apply(ThreadSweep)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_KernelEuclidean)->Apply(TierSweep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelWeighted)->Apply(TierSweep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelMahalanobisFull)
    ->Apply(TierSweep)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelDisjunctive)
    ->Apply(TierSweep)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelDisjunctiveFull)
    ->Apply(TierSweep)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelDisjunctiveNarrow)
    ->Apply(TierSweep)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_LinearScanEuclidean)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BrTreeEuclidean)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LinearScanDisjunctive)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BrTreeDisjunctive)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BrTreeWarmRefinement)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BrTreeWarmUnchangedMetric)->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_ReplayLinearScanCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReplayLinearScanWarm)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
