#ifndef QCLUSTER_INDEX_KNN_H_
#define QCLUSTER_INDEX_KNN_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "index/distance.h"

namespace qcluster::index {

/// One k-NN result entry.
struct Neighbor {
  int id = -1;           ///< Position of the point in the database.
  double distance = 0.0; ///< Value of the query's DistanceFunction.

  friend bool operator==(const Neighbor& a, const Neighbor& b) = default;
};

/// The one order every index, merge and audit ranks neighbors by: ascending
/// distance, ties broken by id. A NaN distance sorts after every number
/// (ties among NaNs again by id), so the order stays a strict weak order on
/// any input — a requirement of std::nth_element and the bounded heaps —
/// and one poisoned row can never displace a finite neighbor.
struct NeighborOrder {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.distance < b.distance) return true;
    if (a.distance > b.distance) return false;
    if (a.distance == b.distance) return a.id < b.id;
    // Unordered: at least one side is NaN.
    return std::isnan(b.distance) && (!std::isnan(a.distance) || a.id < b.id);
  }
};

/// Cost counters filled by a search, used by the execution-cost experiments
/// (Fig. 6-7).
struct SearchStats {
  long long distance_evaluations = 0;  ///< Point-level metric evaluations.
  long long nodes_visited = 0;         ///< Tree nodes expanded (0 for scans).
  long long leaves_visited = 0;        ///< Leaf nodes expanded.

  SearchStats& operator+=(const SearchStats& other) {
    distance_evaluations += other.distance_evaluations;
    nodes_visited += other.nodes_visited;
    leaves_visited += other.leaves_visited;
    return *this;
  }
};

/// Finalizes one search's cost accounting: accumulates `delta` into the
/// caller's `out` (when non-null) and, when metrics are enabled, folds it
/// into the global registry under `<index_name>.searches`,
/// `<index_name>.distance_evaluations`, `<index_name>.nodes_visited`, and
/// `<index_name>.leaves_visited`, so per-query SearchStats also aggregate
/// across a whole session.
void FinishSearch(const char* index_name, const SearchStats& delta,
                  SearchStats* out);

/// Scores the rows ids[0..count) of `rows` under `dist` into out[0..count):
/// gathers them into per-thread contiguous scratch and makes one
/// DistanceBatch call, so a scattered set of rows gets the linear scan's
/// kernel and bits (equal to DistanceRow's by contract). Allocates nothing
/// once the calling thread's scratch has grown to the largest request.
void ScoreRows(const DistanceFunction& dist, const linalg::FlatView& rows,
               const int* ids, std::size_t count, double* out);

/// Session-resident cross-round candidate cache. Relevance feedback makes
/// round t+1's metric a small perturbation of round t's, so the previous
/// round's survivors are near-optimal candidates for the next pass: before
/// scanning, an index re-scores them under the *new* metric — the k-th
/// smallest of those exact distances is a certified upper bound θ₀ on the
/// true k-th-NN distance (the k-th smallest over any ≥k-point subset can
/// only overestimate the k-th smallest over the full database). Pruning
/// anything whose distance or lower bound is *strictly greater* than θ₀ is
/// therefore exact, and ties at θ₀ survive, so warm results stay
/// byte-identical to the cold path.
///
/// Invalidation: Record stores the recording metric's full
/// QuadraticDecomposition as the cache key; Reseed reuses the stored
/// distances only when the current metric's decomposition compares equal —
/// exact structural equality, every entry bit for bit — and otherwise
/// re-scores every cached id with one DistanceBatch call. Opaque metrics
/// (Decompose → false) never store a key and never match, so a stale
/// distance can never be served by construction; at worst the cache pays
/// |ids| fresh evaluations.
///
/// Thread safety: externally synchronized. Each QclusterEngine owns one
/// WarmStart, so concurrent sessions (one engine each) never share one; the
/// re-scoring scratch inside Reseed is thread_local.
class WarmStart {
 public:
  /// One round's attempt to warm-start a search from the cache.
  struct Seed {
    /// Cached survivors scored under the current metric (stored id order).
    std::vector<Neighbor> scored;
    /// Certified upper bound on the true k-th distance; +inf when the cache
    /// held fewer than k candidates (warm path disabled, cold-equivalent).
    double theta0 = std::numeric_limits<double>::infinity();
    long long evaluations = 0;  ///< Exact evaluations spent re-scoring.
    bool reused = false;        ///< Metric key matched; stored distances reused.

    bool valid() const { return !scored.empty(); }
  };

  bool empty() const { return ids_.empty(); }
  int size() const { return static_cast<int>(ids_.size()); }
  const std::vector<int>& ids() const { return ids_; }
  bool has_key() const { return has_key_; }

  /// Drops all cached state (candidates, metric key, leaf payload).
  void Clear();

  /// Replaces the cached candidates with `scored` — one round's survivors
  /// with their exact distances under `dist` — and stores `dist`'s
  /// decomposition as the reuse key (no key for opaque metrics). Resets the
  /// BrTree leaf payload; BrTree re-installs its own after recording.
  void Record(const DistanceFunction& dist, const std::vector<Neighbor>& scored);

  /// Seeds the next round: re-scores the cached candidates under `dist`
  /// (or reuses the stored distances on an exact metric-key match) and
  /// certifies θ₀ as the k-th smallest of those exact distances. Returns an
  /// invalid Seed when fewer than k candidates are cached. `rows` must be
  /// the same database the ids were recorded against.
  Seed Reseed(const DistanceFunction& dist, int k,
              const linalg::FlatView& rows) const;

  /// BrTree-private payload: leaf pages (node indices, ascending) whose
  /// every entry is already in ids(), safe to skip when the seed re-offers
  /// all cached candidates. A node index names a page only in the tree that
  /// recorded it, so the payload carries that tree's `owner` serial.
  const std::vector<int>& leaves() const { return leaves_; }

  /// Moves the leaf payload out when tree `owner` recorded it; another
  /// tree's pages come back empty. Either way none stay cached.
  std::vector<int> TakeLeaves(std::uint64_t owner);

  /// Installs `leaves` (ascending node indices of tree `owner`).
  void SetLeaves(std::uint64_t owner, std::vector<int> leaves);

 private:
  Seed SeedFromScores(int k, std::vector<Neighbor> scored, long long evals,
                      bool reused) const;
  bool KeyMatches(const DistanceFunction& dist) const;

  std::vector<int> ids_;
  std::vector<double> distances_;
  bool has_key_ = false;
  QuadraticDecomposition key_;
  std::uint64_t leaves_owner_ = 0;  ///< Serial of the recording tree.
  std::vector<int> leaves_;
};

/// Folds one warm-started search's outcome into the metrics registry:
/// `<index_name>.warm.hits` counts searches seeded with a finite θ₀,
/// `<index_name>.warm.seed_theta_ratio` records θ₀ ÷ the final exact k-th
/// distance (≥ 1; 1.0 = the certificate was perfectly tight), and
/// `<index_name>.warm.pruned_frac` records the fraction of work the θ₀
/// bound let the index skip (index-specific denominator, see each
/// SearchWarm override). No-op when the seed was invalid.
void FinishWarmSearch(const char* index_name, const WarmStart::Seed& seed,
                      const std::vector<Neighbor>& result, double pruned_frac);

/// Interface of a k-nearest-neighbor search structure over an immutable
/// point database. Implementations must return results sorted by
/// NeighborOrder.
class KnnIndex {
 public:
  virtual ~KnnIndex() = default;

  /// Number of indexed points.
  virtual int size() const = 0;

  /// Returns the k nearest points under `dist` (fewer when the database is
  /// smaller than k). `stats`, when non-null, accumulates search cost.
  /// [[nodiscard]]: a search run purely to fill `stats` says so with
  /// qcluster::DiscardResult (see common/status.h).
  [[nodiscard]] virtual std::vector<Neighbor> Search(
      const DistanceFunction& dist, int k,
      SearchStats* stats = nullptr) const = 0;

  /// Warm-started search: seeds a θ₀ pruning bound from `warm` (the
  /// previous round's survivors) and records this round's survivors back
  /// into it for the next round. Results are byte-identical to Search —
  /// θ₀ only tightens an exact bound — across metrics, thread counts, and
  /// SIMD tiers. The default forwards to Search and records the result, so
  /// every index keeps the session cache fresh even without a warm fast
  /// path of its own.
  [[nodiscard]] virtual std::vector<Neighbor> SearchWarm(
      const DistanceFunction& dist, int k, WarmStart& warm,
      SearchStats* stats = nullptr) const;
};

}  // namespace qcluster::index

#endif  // QCLUSTER_INDEX_KNN_H_
