#ifndef QCLUSTER_DATASET_FEATURE_DATABASE_H_
#define QCLUSTER_DATASET_FEATURE_DATABASE_H_

#include <utility>
#include <vector>

#include "dataset/image_collection.h"
#include "linalg/flat_view.h"
#include "linalg/pca.h"
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

  int size() const { return static_cast<int>(features_.size()); }
  int dim() const {
    return features_.empty() ? 0 : static_cast<int>(features_.front().size());
  }

  /// PCA-reduced feature vectors, aligned with the collection's image ids.
  const std::vector<linalg::Vector>& features() const { return features_; }

  /// The same features as one contiguous row-major block — the SoA layout
  /// the batched distance kernels scan. Stays valid for the database's
  /// lifetime; hand it to LinearScanIndex(FlatView) for a zero-copy index.
  // qlint: snapshot(valid for the database's lifetime; storage is immutable)
  linalg::FlatView flat_view() const { return flat_.view(); }

  const std::vector<int>& categories() const { return categories_; }
  const std::vector<int>& themes() const { return themes_; }
  const linalg::Pca& pca() const { return pca_; }

 private:
  FeatureDatabase(std::vector<linalg::Vector> features,
                  std::vector<int> categories, std::vector<int> themes,
                  linalg::Pca pca)
      : features_(std::move(features)),
        categories_(std::move(categories)),
        themes_(std::move(themes)),
        pca_(std::move(pca)),
        flat_(linalg::FlatBlock::FromPoints(features_)) {}

  std::vector<linalg::Vector> features_;
  std::vector<int> categories_;
  std::vector<int> themes_;
  linalg::Pca pca_;
  linalg::FlatBlock flat_;  ///< Contiguous packing of features_.
};

}  // namespace qcluster::dataset

#endif  // QCLUSTER_DATASET_FEATURE_DATABASE_H_
