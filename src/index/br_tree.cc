#include "index/br_tree.h"

#include <algorithm>
#include <queue>

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
  return SearchImpl(dist, k, nullptr, stats);
}

std::vector<Neighbor> BrTree::SearchUncached(const DistanceFunction& dist,
                                             int k, WarmStart& warm,
                                             SearchStats* stats) const {
  std::vector<int>& pages = warm.PagesOf(serial());
  std::vector<Neighbor> result = SearchImpl(dist, k, &pages, stats);
  std::sort(pages.begin(), pages.end());
  return result;
}

std::vector<Neighbor> BrTree::SearchImpl(const DistanceFunction& dist, int k,
                                         std::vector<int>* pages,
                                         SearchStats* stats) const {
  QCLUSTER_CHECK(k > 0);
  if (root_ < 0) return {};
  QCLUSTER_TRACE_SPAN(span, "index.br_tree.search");
  span.AddAttr("index", "br_tree");
  span.AddAttr("k", k);
  span.AddAttr("warm", pages != nullptr ? 1 : 0);
  SearchStats local;
  BoundedTopK best(k);
  thread_local std::vector<double> scores;
  // Pages this search reads are appended after the cached ones.
  const std::size_t cached = pages != nullptr ? pages->size() : 0;
  const auto is_cached = [&](int node) {
    return cached > 0 &&
           std::binary_search(pages->data(), pages->data() + cached, node);
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
    if (entry.bound > best.KthBound()) break;  // Nothing closer remains.
    const Node& node = nodes_[static_cast<std::size_t>(entry.node)];
    ++local.nodes_visited;
    if (node.IsLeaf()) {
      // A page in the session cache is in memory: scored, but not read.
      if (!is_cached(entry.node)) {
        ++local.leaves_visited;
        if (pages != nullptr) pages->push_back(entry.node);
      }
      // The page's points, scored with one DistanceBatch call and offered
      // in page order.
      const int* page = ids_.data() + node.begin;
      const auto count = static_cast<std::size_t>(node.end - node.begin);
      scores.resize(count);
      ScoreRows(dist, points_->view(), page, count, scores.data());
      for (std::size_t i = 0; i < count; ++i) {
        best.Push(Neighbor{page[i], scores[i]});
      }
      local.distance_evaluations += static_cast<long long>(count);
    } else {
      for (int child : {node.left, node.right}) {
        const double bound =
            dist.MinDistance(nodes_[static_cast<std::size_t>(child)].rect);
        if (bound <= best.KthBound()) frontier.push(Entry{bound, child});
      }
    }
  }

  span.AddAttr("nodes_visited", local.nodes_visited);
  span.AddAttr("leaves_visited", local.leaves_visited);
  if (pages != nullptr) MetricAdd("index.br_tree.warm_searches");
  FinishSearch("index.br_tree", local, stats);
  return std::move(best).TakeSorted();
}

}  // namespace qcluster::index
