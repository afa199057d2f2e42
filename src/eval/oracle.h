#ifndef QCLUSTER_EVAL_ORACLE_H_
#define QCLUSTER_EVAL_ORACLE_H_

#include <vector>

#include "core/retrieval_method.h"
#include "index/knn.h"

namespace qcluster::eval {

/// Relevance-judgement policy of the simulated user.
struct OracleOptions {
  /// Score given to images of a related category — same theme ("relevant",
  /// e.g. flowers vs plants). 0 disables theme-level relevance.
  double same_theme_score = 1.0;
  /// Imperfect-user model: probability that a truly relevant retrieved
  /// image is overlooked (not marked), and probability that a non-relevant
  /// retrieved image is marked by mistake (with the theme score). 0/0 is
  /// the paper's perfect oracle. Judgements stay deterministic per
  /// (result, query) via a hash-seeded generator.
  double miss_probability = 0.0;
  double false_mark_probability = 0.0;
};

/// The ground-truth user of Sec. 5: "we use high-level category information
/// as the ground truth to obtain the relevance feedback … images from the
/// same category are considered most relevant and images from related
/// categories are considered relevant."
class OracleUser {
 public:
  /// `categories` and `themes` are per-image ground truth labels, kept
  /// alive by the caller.
  OracleUser(const std::vector<int>* categories, const std::vector<int>* themes,
             const OracleOptions& options);

  /// Marks the relevant images among `result` for a query of category
  /// `query_category` / theme `query_theme`.
  std::vector<core::RelevantItem> Judge(
      const std::vector<index::Neighbor>& result, int query_category,
      int query_theme) const;

  /// Ground-truth relevance predicate used by precision/recall: same
  /// category only (the strictest reading, used for all reported metrics).
  bool IsRelevant(int id, int query_category) const;

  /// Total number of images in `category` (the recall denominator).
  int CategorySize(int category) const;

 private:
  const std::vector<int>* categories_;
  const std::vector<int>* themes_;
  OracleOptions options_;
};

}  // namespace qcluster::eval

#endif  // QCLUSTER_EVAL_ORACLE_H_
