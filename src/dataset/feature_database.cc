#include "dataset/feature_database.h"

#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "image/color_moments.h"
#include "image/color_histogram.h"
#include "image/glcm.h"
#include "linalg/pca.h"

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

/// Minimum images per ParallelFor shard in Build. Rendering and extracting
/// one default-size image takes ~0.2 ms, far above the hand-off cost.
constexpr std::size_t kMinShardImages = 16;
/// Minimum rows per shard in the standardize and projection passes, which
/// cost well under a microsecond per row.
constexpr std::size_t kMinShardRows = 1024;

/// Standardizes every dimension to zero mean / unit variance in place.
/// Raw GLCM features mix wildly different scales (probabilities vs fourth
/// moments); without standardization PCA would be dominated by the largest
/// scale rather than the informative directions. The mean and variance sums
/// run serially in row order, so the result has the same bits at any
/// thread count; only the per-row rescale runs on the pool.
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
  Vector sd(p);
  for (std::size_t j = 0; j < p; ++j) sd[j] = std::sqrt(var[j] * inv_n);
  ThreadPool::Global().ParallelFor(
      rows.size(), kMinShardRows,
      [&](int /*shard*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Vector& r = rows[i];
          for (std::size_t j = 0; j < p; ++j) {
            r[j] = sd[j] > 1e-12 ? (r[j] - mean[j]) / sd[j] : 0.0;
          }
        }
      });
}

}  // namespace

FeatureDatabase FeatureDatabase::Build(const ImageCollection& collection,
                                       FeatureType type, int reduced_dim) {
  // Every image is rendered from its own id-seeded generator, so images are
  // independent: each shard fills its own slots of the pre-sized outputs.
  const std::size_t n = static_cast<std::size_t>(collection.size());
  std::vector<Vector> raw(n);
  std::vector<int> categories(n);
  std::vector<int> themes(n);
  ThreadPool::Global().ParallelFor(
      n, kMinShardImages,
      [&](int /*shard*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const int id = static_cast<int>(i);
          const image::Image img = collection.Render(id);
          switch (type) {
            case FeatureType::kColorMoments:
              raw[i] = image::ExtractColorMoments(img);
              break;
            case FeatureType::kTexture:
              raw[i] = image::ExtractTextureFeatures(img);
              break;
            case FeatureType::kColorHistogram:
              raw[i] = image::ExtractColorHistogram(img);
              break;
          }
          categories[i] = collection.category(id);
          themes[i] = collection.theme(id);
        }
      });
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
  // The covariance sum inside Fit stays serial, in row order.
  Result<Pca> pca = Pca::Fit(raw);
  QCLUSTER_CHECK_OK(pca.status());
  linalg::FlatBlock reduced(raw.size(), reduced_dim);
  ThreadPool::Global().ParallelFor(
      raw.size(), kMinShardRows,
      [&](int /*shard*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          pca.value().TransformInto(raw[i], reduced_dim,
                                    reduced.mutable_row(i));
        }
      });
  return FeatureDatabase(std::move(reduced), std::move(categories),
                         std::move(themes));
}

}  // namespace qcluster::dataset
