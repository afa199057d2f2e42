#ifndef QCLUSTER_INDEX_KNN_H_
#define QCLUSTER_INDEX_KNN_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
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

/// A fixed-capacity max-heap of the k closest neighbors seen so far under
/// NeighborOrder, so ties resolve deterministically: the scan's shard-local
/// accumulator and the BR-tree's result heap. Inline because it runs once
/// per scored point.
class BoundedTopK {
 public:
  explicit BoundedTopK(int k);

  /// Offers one candidate; keeps it only if it beats the current k-th.
  void Push(const Neighbor& candidate) {
    if (heap_.size() < k_) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), NeighborOrder{});
      return;
    }
    if (!NeighborOrder{}(candidate, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), NeighborOrder{});
    heap_.back() = candidate;
    std::push_heap(heap_.begin(), heap_.end(), NeighborOrder{});
  }

  /// The largest distance that can still enter: the k-th distance held, or
  /// +inf while fewer than k are held or the k-th is NaN (NaN sorts after
  /// every number, so any finite candidate still displaces it).
  double KthBound() const {
    return heap_.size() < k_ || std::isnan(heap_.front().distance)
               ? std::numeric_limits<double>::infinity()
               : heap_.front().distance;
  }

  /// Destructively returns the retained neighbors sorted ascending.
  std::vector<Neighbor> TakeSorted() &&;

  int size() const { return static_cast<int>(heap_.size()); }

 private:
  std::size_t k_;
  std::vector<Neighbor> heap_;  ///< Max-heap: worst retained entry on top.
};

/// Session-resident cross-round cache of one index's last answer.
/// Relevance feedback asks one k-NN query per round, and a round that adds
/// no new relevant point usually rebuilds the very same metric; every other
/// round's metric is a small perturbation of the last one.
///
/// Answer reuse: Record stores the sorted top-k an index returned, its k,
/// the index's serial, and a copy of the metric's QuadraticDecomposition as
/// the key. KnnIndex::SearchWarm returns that answer without searching only
/// when the same index asks for the same k under a metric whose
/// decomposition, read in place, compares equal — exact structural
/// equality, every entry compared by value, never hashed or
/// tolerance-matched (a NaN entry never matches; ±0 match, and no distance
/// depends on a zero's sign). Opaque metrics (decomposition() null) store
/// no key and never match, so a stale answer can never be served by
/// construction.
///
/// On any other round the recorded entries still help: the linear scan
/// re-scores them under the new metric (Reseed), and the k-th smallest of
/// those exact distances is a certified upper bound θ₀ on the true k-th-NN
/// distance (the k-th smallest over any ≥ k distinct points can only
/// overestimate the k-th smallest over the whole database), so rejecting
/// every point strictly above θ₀ is exact; the BR-tree keeps the leaf
/// pages it has read in the session (pages()) and reads each only once.
///
/// Everything cached belongs to the one index that recorded it: a record or
/// page list of another index is dropped, never consulted.
///
/// Thread safety: externally synchronized. Each QclusterEngine owns one
/// WarmStart, so concurrent sessions (one engine each) never share one.
class WarmStart {
 public:
  /// One scan round's θ₀ certificate.
  struct Seed {
    /// Certified upper bound on the true k-th distance; +inf when fewer
    /// than k entries were recorded (no bound, cold-equivalent).
    double theta0 = std::numeric_limits<double>::infinity();
    long long evaluations = 0;  ///< Exact evaluations spent re-scoring.

    bool valid() const { return evaluations > 0; }
  };

  bool empty() const { return answer_.empty(); }
  int size() const { return static_cast<int>(answer_.size()); }
  bool has_key() const { return key_.has_value(); }

  /// Drops all cached state (answer, metric key, pages).
  void Clear();

  /// Stores `answer` — the sorted top-k that the index with serial `owner`
  /// returned for `k` under `dist` — keeping the first entry of each id, and
  /// `dist`'s decomposition as the reuse key (no key for opaque metrics).
  /// Keeps the page list only when `owner` recorded it too.
  void Record(const DistanceFunction& dist, int k, std::uint64_t owner,
              const std::vector<Neighbor>& answer);

  /// The recorded answer when index `owner` recorded it for this `k` under a
  /// metric whose decomposition equals `dist`'s; else nullptr. Compares in
  /// place and allocates nothing.
  const std::vector<Neighbor>* Find(const DistanceFunction& dist, int k,
                                    std::uint64_t owner) const;

  /// Re-scores the recorded ids under `dist` with one DistanceBatch call over
  /// `rows` (the database index `owner` searches) and certifies θ₀ as the
  /// k-th smallest. Returns an invalid Seed when `owner` did not record the
  /// answer or it holds fewer than k entries.
  Seed Reseed(const DistanceFunction& dist, int k, std::uint64_t owner,
              const linalg::FlatView& rows) const;

  /// BrTree's page cache: the leaf pages (node indices, ascending) the tree
  /// has read this session. Empty unless that tree recorded them.
  const std::vector<int>& pages() const { return pages_; }

  /// The page list of the index with serial `owner`, for it to read and
  /// extend; a list another index left is cleared first, with its answer.
  std::vector<int>& PagesOf(std::uint64_t owner);

 private:
  /// Makes `owner` the index this cache belongs to, dropping what another
  /// index left.
  void Adopt(std::uint64_t owner);

  std::uint64_t owner_ = 0;  ///< Serial of the recording index; 0 = none.
  int k_ = 0;
  std::vector<Neighbor> answer_;
  std::optional<QuadraticDecomposition> key_;  ///< Empty: opaque metric.
  std::vector<int> pages_;
};

/// Interface of a k-nearest-neighbor search structure over an immutable
/// point database. Implementations must return results sorted by
/// NeighborOrder. Every index carries a serial, unique in the process and
/// never reused (unlike an address), which names it in a WarmStart.
class KnnIndex {
 public:
  KnnIndex();
  KnnIndex(const KnnIndex&) = delete;
  KnnIndex& operator=(const KnnIndex&) = delete;
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

  /// Search with the session cache `warm`. When `warm` holds this index's
  /// answer for k under a metric whose decomposition equals `dist`'s (see
  /// WarmStart), returns a copy of it, the round's one allocation: no
  /// distance is evaluated and no node or page is read (`stats` gains
  /// nothing). Otherwise runs SearchUncached and records its answer. Results
  /// are byte-identical to Search across metrics, thread counts, and SIMD
  /// tiers. Virtual only so a forwarding decorator can wrap it; an index
  /// specializes SearchUncached.
  [[nodiscard]] virtual std::vector<Neighbor> SearchWarm(
      const DistanceFunction& dist, int k, WarmStart& warm,
      SearchStats* stats = nullptr) const;

  std::uint64_t serial() const { return serial_; }

 protected:
  /// A SearchWarm round the recorded answer could not serve; may use what
  /// else `warm` holds for this index. The default is Search.
  [[nodiscard]] virtual std::vector<Neighbor> SearchUncached(
      const DistanceFunction& dist, int k, WarmStart& warm,
      SearchStats* stats) const;

 private:
  const std::uint64_t serial_;
};

}  // namespace qcluster::index

#endif  // QCLUSTER_INDEX_KNN_H_
