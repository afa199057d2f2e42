#include "index/br_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_set>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace qcluster::index {

BrTree::BrTree(const linalg::FlatBlock* points, const Options& options)
    : points_(points) {
  QCLUSTER_CHECK(points != nullptr);
  QCLUSTER_CHECK(options.leaf_size >= 1);
  ids_.resize(points_->size());
  for (std::size_t i = 0; i < ids_.size(); ++i) ids_[i] = static_cast<int>(i);
  if (!points_->empty()) {
    root_ = Build(0, static_cast<int>(ids_.size()), options.leaf_size);
  }
}

int BrTree::Build(int begin, int end, int leaf_size) {
  QCLUSTER_CHECK(begin < end);
  const int dim = points_->dim();

  Rect rect = Rect::Empty(dim);
  for (int i = begin; i < end; ++i) {
    rect.Expand(points_->row(
        static_cast<std::size_t>(ids_[static_cast<std::size_t>(i)])));
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<std::size_t>(node_index)].rect = rect;

  if (end - begin <= leaf_size) {
    Node& node = nodes_[static_cast<std::size_t>(node_index)];
    node.begin = begin;
    node.end = end;
    return node_index;
  }

  // Split on the widest dimension at the median.
  int split_dim = 0;
  double widest = -1.0;
  for (int d = 0; d < dim; ++d) {
    const double extent = rect.hi[static_cast<std::size_t>(d)] -
                          rect.lo[static_cast<std::size_t>(d)];
    if (extent > widest) {
      widest = extent;
      split_dim = d;
    }
  }
  // The coordinate is ordered like a neighbor distance (NeighborOrder): NaN
  // after every number and ties by id, a strict weak order on any input as
  // std::nth_element requires.
  const int mid = begin + (end - begin) / 2;
  const auto key = [this, split_dim](int id) {
    return Neighbor{id, points_->row(static_cast<std::size_t>(id))
                            [static_cast<std::size_t>(split_dim)]};
  };
  std::nth_element(ids_.begin() + begin, ids_.begin() + mid,
                   ids_.begin() + end, [&key](int a, int b) {
                     return NeighborOrder{}(key(a), key(b));
                   });

  const int left = Build(begin, mid, leaf_size);
  const int right = Build(mid, end, leaf_size);
  nodes_[static_cast<std::size_t>(node_index)].left = left;
  nodes_[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

std::vector<Neighbor> BrTree::Search(const DistanceFunction& dist, int k,
                                     SearchStats* stats) const {
  return SearchImpl(dist, k, nullptr, nullptr, nullptr, nullptr, stats);
}

std::vector<Neighbor> BrTree::SearchWarm(const DistanceFunction& dist, int k,
                                         WarmStart& warm,
                                         SearchStats* stats) const {
  // Re-score the cached candidates with one batched kernel call (or reuse
  // the stored distances on an exact metric-key match) — the scalar
  // per-point rescoring loop this replaces did the same work one point at
  // a time. The seed is only usable when ≥ k candidates are cached; the
  // cached-leaf skip likewise requires every cached candidate to have been
  // offered, so both gate on seed validity together.
  const WarmStart::Seed seed = warm.Reseed(dist, k, points_->view());
  std::vector<Neighbor> touched;
  std::unordered_set<int> touched_leaves;
  SearchStats call_stats;
  std::vector<Neighbor> result = SearchImpl(
      dist, k, seed.valid() ? &seed : nullptr,
      seed.valid() ? &warm.leaves() : nullptr, &touched, &touched_leaves,
      &call_stats);
  if (stats != nullptr) *stats += call_stats;
  double pruned_frac = -1.0;
  if (seed.valid() && !points_->empty()) {
    // Fraction of the database never evaluated this round — tree pruning
    // plus the leaf pages the cache made free.
    const auto n = static_cast<double>(points_->size());
    pruned_frac = (n - static_cast<double>(call_stats.distance_evaluations)) /
                  n;
  }
  warm.Record(dist, touched);
  warm.mutable_leaves() = std::move(touched_leaves);
  FinishWarmSearch("index.br_tree", seed, result, pruned_frac);
  return result;
}

std::vector<Neighbor> BrTree::SearchImpl(
    const DistanceFunction& dist, int k, const WarmStart::Seed* seed,
    const std::unordered_set<int>* cached_leaves, std::vector<Neighbor>* touched,
    std::unordered_set<int>* touched_leaves, SearchStats* stats) const {
  QCLUSTER_CHECK(k > 0);
  if (root_ < 0) return {};
  QCLUSTER_TRACE_SPAN(span, "index.br_tree.search");
  span.AddAttr("index", "br_tree");
  span.AddAttr("k", k);
  span.AddAttr("warm", seed != nullptr ? 1 : 0);
  SearchStats local;

  // Max-heap of the best k seen so far; top is the current k-th distance.
  std::priority_queue<Neighbor, std::vector<Neighbor>, NeighborOrder> best;
  auto offer = [&](int id, double d) {
    if (static_cast<int>(best.size()) < k) {
      best.push(Neighbor{id, d});
    } else if (NeighborOrder{}(Neighbor{id, d}, best.top())) {
      best.pop();
      best.push(Neighbor{id, d});
    }
  };
  // A NaN on top sorts after every number, so any finite candidate still
  // displaces it: there is no finite bound to prune with yet.
  auto kth_bound = [&] {
    return static_cast<int>(best.size()) < k || std::isnan(best.top().distance)
               ? std::numeric_limits<double>::infinity()
               : best.top().distance;
  };

  // Warm start: offer the previous iterations' candidates first, already
  // re-scored under this round's metric by WarmStart::Reseed (pure
  // in-memory work — their leaf pages are cached). The resulting k-th
  // distance bound prunes most of the refined query's tree, and cached
  // leaves are never fetched again. `warm_ids` guards against offering a
  // candidate twice when an uncached leaf overlaps the candidate set.
  std::unordered_set<int> warm_ids;
  if (seed != nullptr) {
    warm_ids.reserve(seed->scored.size());
    for (const Neighbor& c : seed->scored) {
      if (!warm_ids.insert(c.id).second) continue;
      offer(c.id, c.distance);
      if (touched != nullptr) touched->push_back(c);
    }
    local.distance_evaluations += seed->evaluations;
    if (touched_leaves != nullptr && cached_leaves != nullptr) {
      *touched_leaves = *cached_leaves;
    }
  }

  // Best-first traversal ordered by rectangle lower bounds.
  struct Entry {
    double bound;
    int node;
  };
  const auto entry_cmp = [](const Entry& a, const Entry& b) {
    return a.bound > b.bound;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(entry_cmp)> frontier(
      entry_cmp);
  frontier.push(
      Entry{dist.MinDistance(nodes_[static_cast<std::size_t>(root_)].rect),
            root_});

  while (!frontier.empty()) {
    const Entry entry = frontier.top();
    frontier.pop();
    if (entry.bound > kth_bound()) break;  // Nothing closer remains.
    const Node& node = nodes_[static_cast<std::size_t>(entry.node)];
    ++local.nodes_visited;
    if (node.IsLeaf()) {
      // A leaf whose page is in the iteration cache costs no IO and its
      // points were already offered during the warm phase.
      if (cached_leaves != nullptr && cached_leaves->contains(entry.node)) {
        continue;
      }
      ++local.leaves_visited;
      if (touched_leaves != nullptr) touched_leaves->insert(entry.node);
      for (int i = node.begin; i < node.end; ++i) {
        const int id = ids_[static_cast<std::size_t>(i)];
        if (!warm_ids.empty() && warm_ids.contains(id)) continue;
        const double d =
            dist.DistanceRow(points_->row(static_cast<std::size_t>(id)));
        offer(id, d);
        ++local.distance_evaluations;
        if (touched != nullptr) touched->push_back(Neighbor{id, d});
      }
    } else {
      for (int child : {node.left, node.right}) {
        const double bound =
            dist.MinDistance(nodes_[static_cast<std::size_t>(child)].rect);
        if (bound <= kth_bound()) frontier.push(Entry{bound, child});
      }
    }
  }

  std::vector<Neighbor> result(best.size());
  for (std::size_t i = result.size(); i-- > 0;) {
    result[i] = best.top();
    best.pop();
  }
  span.AddAttr("nodes_visited", local.nodes_visited);
  span.AddAttr("leaves_visited", local.leaves_visited);
  if (seed != nullptr) MetricAdd("index.br_tree.warm_searches");
  FinishSearch("index.br_tree", local, stats);
  return result;
}

}  // namespace qcluster::index
