#ifndef QCLUSTER_DATASET_FEATURE_DATABASE_H_
#define QCLUSTER_DATASET_FEATURE_DATABASE_H_

#include <vector>

#include "dataset/image_collection.h"
#include "linalg/flat_view.h"
#include "linalg/vector.h"

namespace qcluster::dataset {

/// The two visual features of the paper's Sec. 5, plus the classic HSV
/// histogram as an extra option.
enum class FeatureType {
  kColorMoments,    ///< 9 HSV moments, PCA-reduced to 3 dimensions.
  kTexture,         ///< 16 co-occurrence features, PCA-reduced to 4 dims.
  kColorHistogram,  ///< 72-bin HSV histogram, PCA-reduced to 8 dimensions.
};

/// Returns the default PCA target dimensionality for `type` (the paper's
/// 3 / 4 for moments / texture; 8 for the histogram extension).
int DefaultReducedDim(FeatureType type);

/// Feature vectors plus ground truth for a whole collection: the in-memory
/// "image database" every retrieval experiment runs against.
class FeatureDatabase {
 public:
  /// Extracts `type` features for every image of `collection`, standardizes
  /// each raw dimension (zero mean, unit variance), fits PCA on the result,
  /// and keeps the `reduced_dim`-dimensional projections (paper defaults
  /// when reduced_dim <= 0).
  [[nodiscard]] static FeatureDatabase Build(const ImageCollection& collection,
                                             FeatureType type,
                                             int reduced_dim = 0);

  /// Builds directly from precomputed raw feature vectors and labels
  /// (used by synthetic workloads and tests).
  [[nodiscard]] static FeatureDatabase FromRawFeatures(
      std::vector<linalg::Vector> raw, std::vector<int> categories,
      std::vector<int> themes, int reduced_dim);

  /// Adopts finished (already reduced) feature rows with one category and
  /// one theme per row, as LoadFeatureDatabase reads them back. CHECKs that
  /// the three sizes agree.
  FeatureDatabase(linalg::FlatBlock features, std::vector<int> categories,
                  std::vector<int> themes);

  int size() const { return static_cast<int>(features_.size()); }
  int dim() const { return features_.dim(); }

  /// PCA-reduced feature vectors, one row per image id: the database's one
  /// store of its points, read in place by every index, metric and method.
  const linalg::FlatBlock& features() const { return features_; }

  /// The rows of features() as a view — what LinearScanIndex and
  /// DistanceBatch take.
  // qlint: snapshot(valid for the database's lifetime; storage is immutable)
  linalg::FlatView flat_view() const { return features_.view(); }

  const std::vector<int>& categories() const { return categories_; }
  const std::vector<int>& themes() const { return themes_; }

 private:
  linalg::FlatBlock features_;
  std::vector<int> categories_;
  std::vector<int> themes_;
};

}  // namespace qcluster::dataset

#endif  // QCLUSTER_DATASET_FEATURE_DATABASE_H_
