#include "index/br_tree.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace qcluster::index {

namespace {

/// Serial of the next tree built. Unlike an address, a serial is never
/// reused, so a WarmStart's leaf pages can only match the tree that
/// fetched them.
std::atomic<std::uint64_t> next_serial{1};

}  // namespace

BrTree::BrTree(const linalg::FlatBlock* points, const Options& options)
    : points_(points),
      serial_(next_serial.fetch_add(1, std::memory_order_relaxed)) {
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
  return SearchImpl(dist, k, nullptr, nullptr, nullptr, stats);
}

std::vector<Neighbor> BrTree::SearchWarm(const DistanceFunction& dist, int k,
                                         WarmStart& warm,
                                         SearchStats* stats) const {
  // Re-score the cached candidates with one batched kernel call (or reuse
  // the stored distances on an exact metric-key match). The seed is only
  // usable when ≥ k candidates are cached; the cached-leaf skip likewise
  // requires every cached candidate to have been offered, so both gate on
  // seed validity together. Leaf pages another tree recorded name other
  // points here and count as uncached.
  const WarmStart::Seed seed = warm.Reseed(dist, k, points_->view());
  std::vector<int> leaves = warm.TakeLeaves(serial_);
  if (!seed.valid()) leaves.clear();
  std::vector<Neighbor> touched;
  SearchStats call_stats;
  std::vector<Neighbor> result =
      SearchImpl(dist, k, seed.valid() ? &seed : nullptr, &leaves, &touched,
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
  std::sort(leaves.begin(), leaves.end());
  warm.SetLeaves(serial_, std::move(leaves));
  FinishWarmSearch("index.br_tree", seed, result, pruned_frac);
  return result;
}

std::vector<Neighbor> BrTree::SearchImpl(const DistanceFunction& dist, int k,
                                         const WarmStart::Seed* seed,
                                         std::vector<int>* leaves,
                                         std::vector<Neighbor>* touched,
                                         SearchStats* stats) const {
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
  // leaves are never fetched again. The byte mark by id offers a candidate
  // once even when the seed repeats it, and keeps an uncached leaf that
  // overlaps the seed from offering it again.
  thread_local std::vector<unsigned char> seed_mark;
  thread_local std::vector<int> unseeded;
  thread_local std::vector<double> scores;
  if (seed != nullptr && seed_mark.size() < points_->size()) {
    seed_mark.resize(points_->size());
  }
  // Clears the seed's marks on every way out, a throwing allocation
  // included, so the scratch is all zero between searches.
  struct ClearSeedMarks {
    const WarmStart::Seed* seed;
    ~ClearSeedMarks() {
      if (seed == nullptr) return;
      for (const Neighbor& c : seed->scored) {
        seed_mark[static_cast<std::size_t>(c.id)] = 0;
      }
    }
  } const clear_seed_marks{seed};
  const unsigned char* seeded = nullptr;
  if (seed != nullptr) {
    for (const Neighbor& c : seed->scored) {
      unsigned char& mark = seed_mark[static_cast<std::size_t>(c.id)];
      if (mark != 0) continue;
      mark = 1;
      offer(c.id, c.distance);
      if (touched != nullptr) touched->push_back(c);
    }
    local.distance_evaluations += seed->evaluations;
    seeded = seed_mark.data();
  }
  // Pages this search fetches are appended after the cached ones.
  const std::size_t cached = leaves != nullptr ? leaves->size() : 0;
  const auto is_cached = [&](int node) {
    return cached > 0 &&
           std::binary_search(leaves->data(), leaves->data() + cached, node);
  };

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
      if (is_cached(entry.node)) continue;
      ++local.leaves_visited;
      if (leaves != nullptr) leaves->push_back(entry.node);
      // The page's points the seed did not offer, scored with one
      // DistanceBatch call and offered in page order.
      const int* page = ids_.data() + node.begin;
      auto count = static_cast<std::size_t>(node.end - node.begin);
      if (seeded != nullptr) {
        unseeded.clear();
        for (std::size_t i = 0; i < count; ++i) {
          if (seeded[page[i]] == 0) unseeded.push_back(page[i]);
        }
        page = unseeded.data();
        count = unseeded.size();
      }
      if (count == 0) continue;
      scores.resize(count);
      ScoreRows(dist, points_->view(), page, count, scores.data());
      for (std::size_t i = 0; i < count; ++i) {
        offer(page[i], scores[i]);
        if (touched != nullptr) touched->push_back({page[i], scores[i]});
      }
      local.distance_evaluations += static_cast<long long>(count);
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
