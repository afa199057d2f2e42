#include "workload.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "image/color_moments.h"
#include "image/glcm.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"

namespace qcluster::bench_e2e {
namespace {

/// wide*: a theme (the oracle's "related" level) groups this many
/// components, as a category theme groups five categories.
constexpr int kComponentsPerTheme = 5;
/// wide*: theme t is shifted this far along axis t, which keeps themes
/// apart (a component's points lie about 10 from its mean in 32-d).
constexpr double kThemeSpacing = 30.0;
/// wide*: images the stage probe renders to price the image layer.
constexpr int kImageSample = 1000;
constexpr std::uint64_t kImageSampleSalt = 0x696d6167655f7361ULL;

/// Renders every image of `ids` and runs both extractors on it, one span per
/// public call.
void RenderAndExtract(const dataset::ImageCollection& collection,
                      const std::vector<int>& ids, SpanRecorder* spans,
                      std::vector<linalg::Vector>* color,
                      std::vector<linalg::Vector>* texture) {
  color->reserve(ids.size());
  texture->reserve(ids.size());
  for (const int id : ids) {
    const image::Image img = [&] {
      SpanScope span(spans, "image.render");
      return collection.Render(id);
    }();
    {
      SpanScope span(spans, "image.color_moments");
      color->push_back(image::ExtractColorMoments(img));
    }
    {
      SpanScope span(spans, "image.glcm");
      texture->push_back(image::ExtractTextureFeatures(img));
    }
  }
}

/// FromRawFeatures as one span.
std::unique_ptr<dataset::FeatureDatabase> TimedFromRaw(
    std::vector<linalg::Vector> raw, std::vector<int> categories,
    std::vector<int> themes, int dim, SpanRecorder* spans) {
  SpanScope span(spans, "dataset.from_raw");
  return std::make_unique<dataset::FeatureDatabase>(
      dataset::FeatureDatabase::FromRawFeatures(
          std::move(raw), std::move(categories), std::move(themes), dim));
}

}  // namespace

bool FindWorkload(const std::string& name, bool small, std::uint64_t seed,
                  Workload* out) {
  Workload w;
  if (name == "paper") {
    // Sec. 5: 300 categories of 100 images, rendered at the default size.
    w.images = true;
    w.collection.num_categories = small ? 20 : 300;
    w.collection.seed = seed;
  } else if (name == "wide") {
    // 100 components × 1,000 points in 32-d.
    w.descriptors.dim = 32;
    w.themes = small ? 4 : 20;
    w.descriptors.points_per_cluster = small ? 500 : 1000;
  } else if (name == "wide-full") {
    // 60 components × 500 points in 16-d, dense covariances.
    w.descriptors.dim = 16;
    w.themes = small ? 2 : 12;
    w.descriptors.points_per_cluster = small ? 300 : 500;
    w.scheme = stats::CovarianceScheme::kInverse;
  } else {
    return false;
  }
  w.descriptors.num_clusters = kComponentsPerTheme;
  w.descriptors.inter_cluster_distance = 3.0;
  w.descriptors.shape = dataset::ClusterShape::kElliptical;
  *out = std::move(w);
  return true;
}

// Each theme is its own generator draw — its own direction and elliptical
// map — rather than one draw for the whole set. A single draw has one
// random geometry, which moved recall and session cost by 20-30% from seed
// to seed; averaging over many draws holds a run's figures still.
Inputs GenerateInputs(const Workload& workload, std::uint64_t seed) {
  Inputs inputs;
  if (workload.images) return inputs;
  Rng rng(seed);
  for (int theme = 0; theme < workload.themes; ++theme) {
    dataset::LabeledPoints draw =
        dataset::GenerateGaussianClusters(workload.descriptors, rng);
    for (std::size_t i = 0; i < draw.points.size(); ++i) {
      draw.points[i][static_cast<std::size_t>(theme)] += kThemeSpacing;
      inputs.raw.push_back(std::move(draw.points[i]));
      inputs.categories.push_back(theme * kComponentsPerTheme +
                                  draw.labels[i]);
      inputs.themes.push_back(theme);
    }
  }
  return inputs;
}

Served SetUp(const Workload& workload, Inputs inputs, SpanRecorder* spans) {
  SpanScope setup(spans, "setup");
  Served served;
  if (workload.images) {
    {
      SpanScope span(spans, "dataset.collection");
      served.collection =
          std::make_unique<dataset::ImageCollection>(workload.collection);
    }
    for (const dataset::FeatureType type :
         {dataset::FeatureType::kColorMoments, dataset::FeatureType::kTexture}) {
      Space space;
      {
        SpanScope span(spans, "dataset.build");
        space.db = std::make_unique<dataset::FeatureDatabase>(
            dataset::FeatureDatabase::Build(*served.collection, type));
      }
      {
        SpanScope span(spans, "index.build");
        space.index = std::make_unique<index::BrTree>(&space.db->features());
      }
      served.spaces.push_back(std::move(space));
    }
    return served;
  }
  Space space;
  space.options.scheme = workload.scheme;
  space.db = TimedFromRaw(std::move(inputs.raw), std::move(inputs.categories),
                          std::move(inputs.themes), workload.descriptors.dim,
                          spans);
  {
    SpanScope span(spans, "index.build");
    space.index = std::make_unique<index::LinearScanIndex>(space.db->flat_view());
  }
  served.spaces.push_back(std::move(space));
  return served;
}

bool RunStageProbe(const Workload& workload, const Served& served,
                   std::uint64_t seed, SpanRecorder* spans) {
  SpanScope probe(spans, "stage_probe");
  std::vector<linalg::Vector> color;
  std::vector<linalg::Vector> texture;
  if (workload.images) {
    const dataset::ImageCollection& collection = *served.collection;
    std::vector<int> ids(static_cast<std::size_t>(collection.size()));
    std::iota(ids.begin(), ids.end(), 0);
    RenderAndExtract(collection, ids, spans, &color, &texture);
    // Build reduces each raw set exactly like this; the results must match.
    std::vector<linalg::Vector>* raws[] = {&color, &texture};
    bool match = served.spaces.size() == 2;
    for (std::size_t i = 0; match && i < 2; ++i) {
      const dataset::FeatureDatabase& db = *served.spaces[i].db;
      const auto rerun = TimedFromRaw(std::move(*raws[i]), db.categories(),
                                      db.themes(), db.dim(), spans);
      match = rerun->features() == db.features();
    }
    return match;
  }
  dataset::ImageCollectionOptions options;
  options.seed = seed;
  const dataset::ImageCollection collection(options);
  Rng rng(seed ^ kImageSampleSalt);
  RenderAndExtract(collection,
                   rng.SampleWithoutReplacement(
                       collection.size(), std::min(kImageSample,
                                                   collection.size())),
                   spans, &color, &texture);
  Inputs inputs = GenerateInputs(workload, seed);
  const auto rerun =
      TimedFromRaw(std::move(inputs.raw), std::move(inputs.categories),
                   std::move(inputs.themes), workload.descriptors.dim, spans);
  return rerun->features() == served.spaces.front().db->features();
}

}  // namespace qcluster::bench_e2e
