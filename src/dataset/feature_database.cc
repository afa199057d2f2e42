#include "dataset/feature_database.h"

#include <cmath>

#include "common/check.h"
#include "image/color_moments.h"
#include "image/color_histogram.h"
#include "image/glcm.h"

namespace qcluster::dataset {

using linalg::Pca;
using linalg::Vector;

int DefaultReducedDim(FeatureType type) {
  switch (type) {
    case FeatureType::kColorMoments:
      return 3;
    case FeatureType::kTexture:
      return 4;
    case FeatureType::kColorHistogram:
      return 8;
  }
  return 3;
}

namespace {

/// Standardizes every dimension to zero mean / unit variance in place.
/// Raw GLCM features mix wildly different scales (probabilities vs fourth
/// moments); without standardization PCA would be dominated by the largest
/// scale rather than the informative directions.
void Standardize(std::vector<Vector>& rows) {
  QCLUSTER_CHECK(!rows.empty());
  const std::size_t p = rows.front().size();
  Vector mean(p, 0.0);
  for (const Vector& r : rows) {
    for (std::size_t j = 0; j < p; ++j) mean[j] += r[j];
  }
  const double inv_n = 1.0 / static_cast<double>(rows.size());
  for (double& m : mean) m *= inv_n;
  Vector var(p, 0.0);
  for (const Vector& r : rows) {
    for (std::size_t j = 0; j < p; ++j) {
      const double d = r[j] - mean[j];
      var[j] += d * d;
    }
  }
  for (double& v : var) v *= inv_n;
  for (Vector& r : rows) {
    for (std::size_t j = 0; j < p; ++j) {
      const double sd = std::sqrt(var[j]);
      r[j] = sd > 1e-12 ? (r[j] - mean[j]) / sd : 0.0;
    }
  }
}

}  // namespace

FeatureDatabase FeatureDatabase::Build(const ImageCollection& collection,
                                       FeatureType type, int reduced_dim) {
  std::vector<Vector> raw;
  raw.reserve(static_cast<std::size_t>(collection.size()));
  std::vector<int> categories;
  std::vector<int> themes;
  categories.reserve(raw.capacity());
  themes.reserve(raw.capacity());
  for (int id = 0; id < collection.size(); ++id) {
    const image::Image img = collection.Render(id);
    switch (type) {
      case FeatureType::kColorMoments:
        raw.push_back(image::ExtractColorMoments(img));
        break;
      case FeatureType::kTexture:
        raw.push_back(image::ExtractTextureFeatures(img));
        break;
      case FeatureType::kColorHistogram:
        raw.push_back(image::ExtractColorHistogram(img));
        break;
    }
    categories.push_back(collection.category(id));
    themes.push_back(collection.theme(id));
  }
  return FromRawFeatures(std::move(raw), std::move(categories),
                         std::move(themes),
                         reduced_dim > 0 ? reduced_dim
                                         : DefaultReducedDim(type));
}

FeatureDatabase FeatureDatabase::FromRawFeatures(std::vector<Vector> raw,
                                                 std::vector<int> categories,
                                                 std::vector<int> themes,
                                                 int reduced_dim) {
  QCLUSTER_CHECK(!raw.empty());
  QCLUSTER_CHECK(raw.size() == categories.size());
  QCLUSTER_CHECK(raw.size() == themes.size());
  QCLUSTER_CHECK(0 < reduced_dim &&
                 reduced_dim <= static_cast<int>(raw.front().size()));
  Standardize(raw);
  Result<Pca> pca = Pca::Fit(raw);
  QCLUSTER_CHECK_OK(pca.status());
  linalg::FlatBlock reduced(raw.size(), reduced_dim);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    pca.value().TransformInto(raw[i], reduced_dim, reduced.mutable_row(i));
  }
  return FeatureDatabase(std::move(reduced), std::move(categories),
                         std::move(themes), std::move(pca).value());
}

}  // namespace qcluster::dataset
