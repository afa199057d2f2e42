#ifndef QCLUSTER_CORE_RETRIEVAL_METHOD_H_
#define QCLUSTER_CORE_RETRIEVAL_METHOD_H_

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "index/knn.h"
#include "linalg/flat_view.h"
#include "linalg/vector.h"

namespace qcluster::core {

/// An image the user marked as relevant, by database id, with its relevance
/// score (the paper's v_ij; any positive scale).
struct RelevantItem {
  int id = 0;
  double score = 1.0;
};

/// The feedback front end shared by every relevance-feedback method
/// compared in Sec. 5 (Qcluster, query point movement, query expansion,
/// FALCON, MindReader): an initial query-by-example round, then rounds in
/// which the user marks images and the method turns the session's relevant
/// set into its next query. The evaluation harness drives every method
/// through this interface.
///
/// The base owns what the protocol shares: the database and index, k, the
/// session's relevant set (the marks of every round so far, each id once,
/// in mark order) and the cost of the latest k-NN round. A method supplies
/// only how it turns the relevant set into a metric: its Feedback calls
/// AddMarked, builds the metric, and answers through Search.
class RetrievalMethod {
 public:
  virtual ~RetrievalMethod() = default;

  /// Human readable method name ("qcluster", "qpm", ...).
  virtual std::string name() const = 0;

  /// Runs the initial k-NN round around the example `query`, resetting all
  /// feedback state. By default a Euclidean round (Sec. 5's query by
  /// example).
  virtual std::vector<index::Neighbor> InitialQuery(
      const linalg::Vector& query);

  /// Incorporates one round of user judgements and answers the refined
  /// query. Aborts on a mark outside the database or with a score that is
  /// not positive (NaN included), and when no image has been marked
  /// relevant in the session so far.
  virtual std::vector<index::Neighbor> Feedback(
      const std::vector<RelevantItem>& marked) = 0;

  /// Clears all feedback state: the relevant set and the last round's
  /// cost. A method with state of its own extends it.
  virtual void Reset();

  /// Cost counters of the most recent retrieval round.
  const index::SearchStats& last_search_stats() const { return last_stats_; }

  /// The session's relevant points and their scores, in mark order.
  const std::vector<linalg::Vector>& relevant_points() const {
    return relevant_points_;
  }
  const std::vector<double>& relevant_scores() const {
    return relevant_scores_;
  }

 protected:
  /// `database` and `knn` must outlive the method; every round asks for
  /// the `k` nearest neighbors.
  RetrievalMethod(const linalg::FlatBlock* database,
                  const index::KnnIndex* knn, int k);

  /// Checks every mark (id in [0, n), score > 0) and appends the marks
  /// whose id the session has not seen to the relevant set. Aborts if the
  /// set is still empty. Returns the index of this call's first new point:
  /// relevant_points()[first, size) are the marks new this round.
  std::size_t AddMarked(const std::vector<RelevantItem>& marked);

  /// Answers one k-NN round under `dist` and records its cost: a cold
  /// search, or through the session cache `warm` when one is given
  /// (index::KnnIndex::SearchWarm, bit-identical to cold).
  std::vector<index::Neighbor> Search(const index::DistanceFunction& dist,
                                      index::WarmStart* warm = nullptr);

 private:
  const linalg::FlatBlock* database_;
  const index::KnnIndex* knn_;
  int k_;

  std::unordered_set<int> seen_ids_;
  std::vector<linalg::Vector> relevant_points_;
  std::vector<double> relevant_scores_;
  index::SearchStats last_stats_;
};

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_RETRIEVAL_METHOD_H_
