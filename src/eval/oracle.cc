#include "eval/oracle.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace qcluster::eval {

namespace {

/// Score given to images of the query's own category ("most relevant").
constexpr double kSameCategoryScore = 3.0;

}  // namespace

OracleUser::OracleUser(const std::vector<int>* categories,
                       const std::vector<int>* themes,
                       const OracleOptions& options)
    : categories_(categories), themes_(themes), options_(options) {
  QCLUSTER_CHECK(categories != nullptr && themes != nullptr);
  QCLUSTER_CHECK(categories->size() == themes->size());
  QCLUSTER_CHECK(options.same_theme_score >= 0.0);
}

std::vector<core::RelevantItem> OracleUser::Judge(
    const std::vector<index::Neighbor>& result, int query_category,
    int query_theme) const {
  // Deterministic per-judgement noise: seeded by the query identity, so
  // repeated runs are reproducible and the same user "re-judging" the same
  // result makes the same mistakes.
  Rng noise(0xFACEu ^ (static_cast<std::uint64_t>(query_category) << 20) ^
            (static_cast<std::uint64_t>(query_theme) << 8) ^
            (result.empty() ? 0u
                            : static_cast<std::uint64_t>(result[0].id)));
  const bool imperfect = options_.miss_probability > 0.0 ||
                         options_.false_mark_probability > 0.0;

  std::vector<core::RelevantItem> marked;
  for (const index::Neighbor& n : result) {
    QCLUSTER_CHECK(0 <= n.id && n.id < static_cast<int>(categories_->size()));
    const int cat = (*categories_)[static_cast<std::size_t>(n.id)];
    const int theme = (*themes_)[static_cast<std::size_t>(n.id)];
    const bool truly_relevant =
        cat == query_category ||
        (theme == query_theme && options_.same_theme_score > 0.0);
    if (truly_relevant) {
      if (imperfect && noise.Uniform() < options_.miss_probability) continue;
      marked.push_back(core::RelevantItem{
          n.id, cat == query_category ? kSameCategoryScore
                                      : options_.same_theme_score});
    } else if (imperfect &&
               noise.Uniform() < options_.false_mark_probability) {
      // A mistaken mark carries low confidence: the theme-level score (or
      // 1 when themes are disabled).
      marked.push_back(core::RelevantItem{
          n.id, options_.same_theme_score > 0.0 ? options_.same_theme_score
                                                : 1.0});
    }
  }
  return marked;
}

bool OracleUser::IsRelevant(int id, int query_category) const {
  QCLUSTER_CHECK(0 <= id && id < static_cast<int>(categories_->size()));
  return (*categories_)[static_cast<std::size_t>(id)] == query_category;
}

int OracleUser::CategorySize(int category) const {
  return static_cast<int>(
      std::count(categories_->begin(), categories_->end(), category));
}

}  // namespace qcluster::eval
