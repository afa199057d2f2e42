// Pinned paper results: the relevance-feedback quality of Qcluster and the
// four baselines on the default-scale synthetic collections (60 categories ×
// 50 images, color and texture), exactly as the Fig. 10–13 benches run them
// (bench::RunQualityComparison): 30 fixed query ids, a BR-tree, k = 100 and
// five oracle-driven feedback rounds. Qcluster runs twice: under the
// diagonal scheme the paper adopts, and under Fig. 6's inverse-matrix
// scheme.
//
// Each pinned value is the number of same-category images in the top 100,
// summed over the 30 queries, for one round. That integer fixes precision
// (value / 3000) and recall (value / 1500) exactly, so any refactor that
// moves a single retrieved image in any round of any method fails here.

#include <array>
#include <cmath>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/falcon.h"
#include "baselines/mindreader.h"
#include "baselines/qex.h"
#include "baselines/qpm.h"
#include "common/rng.h"
#include "core/engine.h"
#include "dataset/feature_database.h"
#include "dataset/image_collection.h"
#include "eval/oracle.h"
#include "eval/simulator.h"
#include "index/br_tree.h"

namespace qcluster {
namespace {

constexpr int kCategories = 60;
constexpr int kImagesPerCategory = 50;
constexpr int kQueries = 30;
constexpr int kRounds = 5;
constexpr int kK = 100;

using RoundHits = std::array<int, kRounds + 1>;

struct Golden {
  const char* method;
  RoundHits color;
  RoundHits texture;
};

constexpr Golden kGoldens[] = {
    {"qcluster", {522, 578, 589, 595, 602, 606}, {648, 822, 877, 891, 894, 897}},
    {"qpm", {522, 562, 569, 573, 577, 578}, {648, 738, 774, 792, 805, 813}},
    {"qex", {522, 520, 499, 481, 509, 512}, {648, 621, 545, 581, 564, 568}},
    {"falcon", {522, 589, 615, 624, 628, 628}, {648, 830, 937, 965, 979, 988}},
    {"mindreader",
     {522, 596, 627, 627, 629, 631},
     {648, 926, 1017, 1039, 1053, 1055}},
    // Fig. 6's inverse-matrix arm: Eq. 5 over full-covariance components,
    // which the BR-tree prunes by their λ_min bounds.
    {"qcluster_inverse",
     {522, 584, 589, 588, 588, 589},
     {648, 898, 995, 1003, 1013, 1014}},
};

/// Same-category hits in the top kK per round, summed over the query ids.
RoundHits HitsPerRound(core::RetrievalMethod& method,
                       const dataset::FeatureDatabase& db,
                       const std::vector<int>& queries) {
  const eval::OracleUser oracle(&db.categories(), &db.themes(),
                                eval::OracleOptions{});
  eval::SimulationOptions sim;
  sim.iterations = kRounds;
  sim.k = kK;
  RoundHits hits{};
  for (int id : queries) {
    const eval::SessionResult s = eval::SimulateSession(
        method, db.features(), oracle, db.categories(), db.themes(), id, sim);
    EXPECT_EQ(s.iterations.size(), hits.size());
    for (std::size_t r = 0; r < hits.size() && r < s.iterations.size(); ++r) {
      // Precision at k is hits / k, so the product is an exact integer.
      hits[r] += static_cast<int>(std::lround(s.iterations[r].precision * kK));
    }
  }
  return hits;
}

/// Runs every method's sessions over `db` served by `knn`, in kGoldens
/// order.
std::vector<RoundHits> RunAllMethods(const dataset::FeatureDatabase& db,
                                     const index::KnnIndex* knn) {
  const std::vector<int> queries = Rng(0xBEEF).SampleWithoutReplacement(
      kCategories * kImagesPerCategory, kQueries);
  const linalg::FlatBlock* features = &db.features();
  core::QclusterOptions qopt;
  qopt.k = kK;
  core::QclusterEngine qcluster(features, knn, qopt);
  baselines::QpmOptions popt;
  popt.k = kK;
  baselines::QueryPointMovement qpm(features, knn, popt);
  baselines::QexOptions xopt;
  xopt.k = kK;
  baselines::QueryExpansion qex(features, knn, xopt);
  baselines::FalconOptions fopt;
  fopt.k = kK;
  baselines::Falcon falcon(features, knn, fopt);
  baselines::MindReaderOptions mopt;
  mopt.k = kK;
  baselines::MindReader mindreader(features, knn, mopt);
  core::QclusterOptions iopt = qopt;
  iopt.scheme = stats::CovarianceScheme::kInverse;
  core::QclusterEngine qcluster_inverse(features, knn, iopt);

  std::vector<RoundHits> out;
  for (core::RetrievalMethod* m : std::initializer_list<core::RetrievalMethod*>{
           &qcluster, &qpm, &qex, &falcon, &mindreader, &qcluster_inverse}) {
    out.push_back(HitsPerRound(*m, db, queries));
  }
  return out;
}

void ExpectGoldens(dataset::FeatureType type, RoundHits Golden::*expected) {
  dataset::ImageCollectionOptions opt;
  opt.num_categories = kCategories;
  opt.images_per_category = kImagesPerCategory;
  const dataset::FeatureDatabase db =
      dataset::FeatureDatabase::Build(dataset::ImageCollection(opt), type);
  const index::BrTree tree(&db.features());
  const std::vector<RoundHits> got = RunAllMethods(db, &tree);
  ASSERT_EQ(got.size(), std::size(kGoldens));
  for (std::size_t m = 0; m < got.size(); ++m) {
    EXPECT_EQ(got[m], kGoldens[m].*expected) << kGoldens[m].method;
  }
  // The paper's headline ordering after the last feedback round.
  EXPECT_GT(got[0][kRounds], got[1][kRounds]) << "qcluster > qpm";
  EXPECT_GT(got[1][kRounds], got[2][kRounds]) << "qpm > qex";
}

TEST(PaperGoldenTest, ColorMomentsHitsPerRound) {
  ExpectGoldens(dataset::FeatureType::kColorMoments, &Golden::color);
}

TEST(PaperGoldenTest, TextureHitsPerRound) {
  ExpectGoldens(dataset::FeatureType::kTexture, &Golden::texture);
}

}  // namespace
}  // namespace qcluster
