#include "dataset/image_collection.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "image/draw.h"

namespace qcluster::dataset {

using image::Image;
using image::Rgb;

namespace {

/// Each category mixes kMinSubstyles..kMaxSubstyles photometric modes (e.g.
/// birds on light-green vs dark-blue backgrounds, Example 1). Substyles are
/// what make a single category map to *disjoint* clusters in feature space
/// — the complex-query structure the paper targets.
constexpr int kMinSubstyles = 2;
constexpr int kMaxSubstyles = 3;

}  // namespace

ImageCollection::ImageCollection(const ImageCollectionOptions& options)
    : options_(options) {
  QCLUSTER_CHECK(options.num_categories >= 1);
  QCLUSTER_CHECK(options.images_per_category >= 1);
  QCLUSTER_CHECK(options.width >= 8 && options.height >= 8);
  QCLUSTER_CHECK(options.categories_per_theme >= 1);

  styles_.reserve(static_cast<std::size_t>(options.num_categories));
  for (int c = 0; c < options.num_categories; ++c) {
    Rng rng(options.seed * 1000003ULL + static_cast<std::uint64_t>(c));
    CategoryStyle style;
    style.kind = static_cast<SceneKind>(rng.UniformInt(5));
    style.object_count = 2 + static_cast<int>(rng.UniformInt(5));
    style.period = 4 + static_cast<int>(rng.UniformInt(8));
    style.noise = 5 + static_cast<int>(rng.UniformInt(20));

    const int substyles =
        kMinSubstyles + static_cast<int>(rng.UniformInt(
                            kMaxSubstyles - kMinSubstyles + 1));
    const double base_hue = rng.Uniform(0.0, 360.0);
    const double object_hue = rng.Uniform(0.0, 360.0);
    for (int s = 0; s < substyles; ++s) {
      Substyle sub;
      // Substyles share the subject palette but shift the background hue by
      // a moderate step — distinct modes (the "light-green vs dark-blue
      // background" bimodality of Example 1) that are still close enough in
      // feature space for the initial k-NN to surface members of both, as
      // in the paper's Example 2.
      sub.background_hue =
          std::fmod(base_hue + s * rng.Uniform(90.0, 160.0), 360.0);
      sub.background_sat = rng.Uniform(0.4, 0.9);
      sub.background_val = rng.Uniform(0.35, 0.95);
      sub.object_hue = std::fmod(object_hue + rng.Uniform(-15.0, 15.0), 360.0);
      sub.object_sat = rng.Uniform(0.6, 1.0);
      sub.object_val = rng.Uniform(0.5, 1.0);
      style.substyles.push_back(sub);
    }
    styles_.push_back(std::move(style));
  }
}

int ImageCollection::category(int id) const {
  QCLUSTER_CHECK(0 <= id && id < size());
  return id / options_.images_per_category;
}

int ImageCollection::theme(int id) const {
  return category(id) / options_.categories_per_theme;
}

Image ImageCollection::Render(int id) const {
  QCLUSTER_CHECK(0 <= id && id < size());
  const int cat = category(id);
  const CategoryStyle& style = styles_[static_cast<std::size_t>(cat)];
  Rng rng(options_.seed * 7919ULL + static_cast<std::uint64_t>(id) * 31ULL +
          1ULL);

  const Substyle& sub = style.substyles[static_cast<std::size_t>(
      rng.UniformInt(style.substyles.size()))];
  const double bg_hue = sub.background_hue;
  const Rgb background =
      image::HsvToRgb(bg_hue, sub.background_sat, sub.background_val);
  const Rgb background_deep = image::HsvToRgb(
      bg_hue, sub.background_sat,
      std::max(0.0, sub.background_val - 0.3));
  const Rgb object =
      image::HsvToRgb(sub.object_hue, sub.object_sat, sub.object_val);

  Image img(options_.width, options_.height, background);
  const int w = options_.width;
  const int h = options_.height;

  switch (style.kind) {
    case SceneKind::kDisksOnGradient: {
      image::FillVerticalGradient(img, background, background_deep);
      // The subject occupies a large pixel fraction so that same-category
      // images *across* substyles stay mutually similar (the shared-object
      // signal that lets the initial k-NN surface several modes at once).
      for (int i = 0; i < style.object_count; ++i) {
        const int r = w / 5 + static_cast<int>(rng.UniformInt(
                                  static_cast<std::uint64_t>(w / 6)));
        image::FillDisk(img, static_cast<int>(rng.UniformInt(w)),
                        static_cast<int>(rng.UniformInt(h)), r, object);
      }
      break;
    }
    case SceneKind::kStripes: {
      image::DrawHorizontalStripes(img, style.period, background, object);
      break;
    }
    case SceneKind::kCheckerboard: {
      image::DrawCheckerboard(img, style.period, background, object);
      break;
    }
    case SceneKind::kEllipseScene: {
      const int rx = w / 4 + static_cast<int>(rng.UniformInt(
                                 static_cast<std::uint64_t>(w / 4)));
      const int ry = h / 4 + static_cast<int>(rng.UniformInt(
                                 static_cast<std::uint64_t>(h / 4)));
      image::FillEllipse(img, w / 2 + static_cast<int>(rng.UniformInt(7)) - 3,
                         h / 2 + static_cast<int>(rng.UniformInt(7)) - 3, rx,
                         ry, object);
      break;
    }
    case SceneKind::kBlobField: {
      const int blobs = 5 * style.object_count;
      for (int i = 0; i < blobs; ++i) {
        image::FillDisk(img, static_cast<int>(rng.UniformInt(w)),
                        static_cast<int>(rng.UniformInt(h)),
                        2 + static_cast<int>(rng.UniformInt(4)), object);
      }
      break;
    }
  }

  image::JitterHsv(img, 8.0, 0.06, 0.06, rng);
  image::AddUniformNoise(img, style.noise, rng);
  return img;
}

}  // namespace qcluster::dataset
