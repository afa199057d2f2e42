#ifndef QCLUSTER_DATASET_IMAGE_COLLECTION_H_
#define QCLUSTER_DATASET_IMAGE_COLLECTION_H_

#include <cstdint>
#include <vector>

#include "image/image.h"

namespace qcluster::dataset {

/// Scene archetypes the procedural categories are drawn from. Each kind
/// exercises a different mix of color and texture structure so the two
/// feature spaces (color moments / GLCM) separate categories differently —
/// the situation the paper's experiments probe.
enum class SceneKind {
  kDisksOnGradient,  ///< Colored disks over a gradient sky ("bird images").
  kStripes,          ///< Periodic horizontal bands (strong texture).
  kCheckerboard,     ///< Grid texture.
  kEllipseScene,     ///< Large ellipse subject over flat background.
  kBlobField,        ///< Many small blobs (granular texture).
};

/// Options for the synthetic 30,000-image Corel/Mantan substitute.
struct ImageCollectionOptions {
  int num_categories = 300;
  int images_per_category = 100;
  int width = 48;
  int height = 48;
  /// Categories are grouped into themes of this size; same-theme images are
  /// "related" (flowers vs plants) for the relevance oracle.
  int categories_per_theme = 5;
  std::uint64_t seed = 20030609;  ///< SIGMOD 2003 conference date.
};

/// A deterministic, procedurally generated image collection with category
/// ground truth. Images are rendered on demand (`Render`), so the 30,000
/// image default fits in a few kilobytes of style parameters instead of
/// hundreds of megabytes of rasters.
class ImageCollection {
 public:
  explicit ImageCollection(const ImageCollectionOptions& options);

  int size() const {
    return options_.num_categories * options_.images_per_category;
  }
  int num_categories() const { return options_.num_categories; }
  const ImageCollectionOptions& options() const { return options_; }

  /// Ground-truth category of image `id`.
  int category(int id) const;

  /// Theme (group of related categories) of image `id`.
  int theme(int id) const;

  /// Renders image `id`. Deterministic: the same id always produces the
  /// same raster.
  image::Image Render(int id) const;

 private:
  struct Substyle {
    double background_hue = 0.0;
    double background_sat = 0.7;
    double background_val = 0.6;
    double object_hue = 0.0;
    double object_sat = 0.8;
    double object_val = 0.8;
  };
  struct CategoryStyle {
    SceneKind kind = SceneKind::kDisksOnGradient;
    std::vector<Substyle> substyles;
    int object_count = 3;
    int period = 6;       ///< Stripe period / checker cell.
    int noise = 10;       ///< Uniform noise amplitude.
  };

  ImageCollectionOptions options_;
  std::vector<CategoryStyle> styles_;
};

}  // namespace qcluster::dataset

#endif  // QCLUSTER_DATASET_IMAGE_COLLECTION_H_
