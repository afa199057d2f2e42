#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/feature_database.h"
#include "dataset/image_collection.h"
#include "dataset/synthetic_gaussian.h"
#include "image/color_histogram.h"
#include "image/color_moments.h"
#include "image/glcm.h"
#include "linalg/decomposition.h"
#include "linalg/pca.h"

namespace qcluster::dataset {
namespace {

using linalg::Vector;

TEST(SyntheticGaussianTest, ClusterCountsAndLabels) {
  Rng rng(81);
  GaussianClustersOptions opt;
  opt.dim = 4;
  opt.num_clusters = 3;
  opt.points_per_cluster = 50;
  const LabeledPoints data = GenerateGaussianClusters(opt, rng);
  EXPECT_EQ(data.points.size(), 150u);
  EXPECT_EQ(data.labels.size(), 150u);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(std::count(data.labels.begin(), data.labels.end(), c), 50);
  }
}

TEST(SyntheticGaussianTest, InterClusterDistanceControlsSeparation) {
  Rng rng(82);
  GaussianClustersOptions opt;
  opt.dim = 8;
  opt.num_clusters = 2;
  opt.points_per_cluster = 400;
  opt.inter_cluster_distance = 6.0;
  const LabeledPoints data = GenerateGaussianClusters(opt, rng);
  Vector mean0(8, 0.0), mean1(8, 0.0);
  for (std::size_t i = 0; i < data.points.size(); ++i) {
    linalg::Axpy(1.0, data.points[i],
                 data.labels[i] == 0 ? mean0 : mean1);
  }
  mean0 = linalg::Scale(mean0, 1.0 / 400.0);
  mean1 = linalg::Scale(mean1, 1.0 / 400.0);
  EXPECT_NEAR(linalg::Distance(mean0, mean1), 6.0, 0.4);
}

TEST(SyntheticGaussianTest, SphericalCovarianceNearIdentity) {
  Rng rng(83);
  GaussianClustersOptions opt;
  opt.dim = 3;
  opt.num_clusters = 1;
  opt.points_per_cluster = 20000;
  opt.shape = ClusterShape::kSpherical;
  const LabeledPoints data = GenerateGaussianClusters(opt, rng);
  // Component variances approximately 1, covariances approximately 0.
  Vector mean(3, 0.0);
  for (const Vector& p : data.points) linalg::Axpy(1.0, p, mean);
  mean = linalg::Scale(mean, 1.0 / 20000.0);
  double var0 = 0.0, cov01 = 0.0;
  for (const Vector& p : data.points) {
    var0 += (p[0] - mean[0]) * (p[0] - mean[0]);
    cov01 += (p[0] - mean[0]) * (p[1] - mean[1]);
  }
  EXPECT_NEAR(var0 / 20000.0, 1.0, 0.05);
  EXPECT_NEAR(cov01 / 20000.0, 0.0, 0.05);
}

TEST(SyntheticGaussianTest, EllipticalShapeSkewsCovariance) {
  Rng rng(84);
  GaussianClustersOptions opt;
  opt.dim = 6;
  opt.num_clusters = 1;
  opt.points_per_cluster = 5000;
  opt.shape = ClusterShape::kElliptical;
  opt.condition = 4.0;
  const LabeledPoints data = GenerateGaussianClusters(opt, rng);
  // Component variances should differ markedly from 1 for some axes.
  Vector mean(6, 0.0);
  for (const Vector& p : data.points) linalg::Axpy(1.0, p, mean);
  mean = linalg::Scale(mean, 1.0 / 5000.0);
  double min_var = 1e9, max_var = 0.0;
  for (int d = 0; d < 6; ++d) {
    double v = 0.0;
    for (const Vector& p : data.points) {
      const double diff = p[static_cast<std::size_t>(d)] -
                          mean[static_cast<std::size_t>(d)];
      v += diff * diff;
    }
    v /= 5000.0;
    min_var = std::min(min_var, v);
    max_var = std::max(max_var, v);
  }
  EXPECT_GT(max_var / min_var, 2.0);
}

TEST(SyntheticGaussianTest, UniformCubeBounds) {
  Rng rng(87);
  const std::vector<Vector> pts = GenerateUniformCube(1000, 3, -2.0, 2.0, rng);
  EXPECT_EQ(pts.size(), 1000u);
  for (const Vector& p : pts) {
    for (double x : p) {
      EXPECT_GE(x, -2.0);
      EXPECT_LT(x, 2.0);
    }
  }
}

TEST(SyntheticGaussianTest, RandomNonsingularMatrixInvertible) {
  Rng rng(88);
  const linalg::Matrix a = RandomNonsingularMatrix(5, 3.0, rng);
  EXPECT_GT(std::abs(linalg::Determinant(a)), 1e-6);
}

ImageCollectionOptions SmallCollection() {
  ImageCollectionOptions opt;
  opt.num_categories = 6;
  opt.images_per_category = 10;
  opt.width = 24;
  opt.height = 24;
  opt.categories_per_theme = 3;
  return opt;
}

TEST(ImageCollectionTest, SizeAndLabels) {
  const ImageCollection col(SmallCollection());
  EXPECT_EQ(col.size(), 60);
  EXPECT_EQ(col.num_categories(), 6);
  EXPECT_EQ(col.category(0), 0);
  EXPECT_EQ(col.category(10), 1);
  EXPECT_EQ(col.category(59), 5);
  EXPECT_EQ(col.theme(0), 0);
  EXPECT_EQ(col.theme(30), 1);  // Category 3 -> theme 1.
}

TEST(ImageCollectionTest, RenderIsDeterministic) {
  const ImageCollection col(SmallCollection());
  const image::Image a = col.Render(17);
  const image::Image b = col.Render(17);
  EXPECT_EQ(a.pixels(), b.pixels());
}

TEST(ImageCollectionTest, DifferentImagesDiffer) {
  const ImageCollection col(SmallCollection());
  EXPECT_NE(col.Render(0).pixels(), col.Render(1).pixels());
}

TEST(ImageCollectionTest, SeedChangesContent) {
  ImageCollectionOptions opt = SmallCollection();
  const ImageCollection col1(opt);
  opt.seed = 999;
  const ImageCollection col2(opt);
  EXPECT_NE(col1.Render(5).pixels(), col2.Render(5).pixels());
}

TEST(FeatureDatabaseTest, BuildColorFeatures) {
  const ImageCollection col(SmallCollection());
  const FeatureDatabase db =
      FeatureDatabase::Build(col, FeatureType::kColorMoments);
  EXPECT_EQ(db.size(), 60);
  EXPECT_EQ(db.dim(), 3);  // Paper's color dimensionality.
  EXPECT_EQ(db.categories().size(), 60u);
  EXPECT_EQ(db.themes().size(), 60u);
}

TEST(FeatureDatabaseTest, BuildTextureFeatures) {
  const ImageCollection col(SmallCollection());
  const FeatureDatabase db = FeatureDatabase::Build(col, FeatureType::kTexture);
  EXPECT_EQ(db.dim(), 4);  // Paper's texture dimensionality.
}

TEST(FeatureDatabaseTest, SameCategoryCloserThanRandomOnAverage) {
  // The collection must carry category signal in feature space, otherwise
  // no retrieval experiment is meaningful.
  ImageCollectionOptions opt = SmallCollection();
  opt.images_per_category = 20;
  const ImageCollection col(opt);
  const FeatureDatabase db =
      FeatureDatabase::Build(col, FeatureType::kColorMoments);
  double within = 0.0, across = 0.0;
  int nw = 0, na = 0;
  Rng rng(89);
  for (int t = 0; t < 3000; ++t) {
    const int i = static_cast<int>(rng.UniformInt(db.size()));
    const int j = static_cast<int>(rng.UniformInt(db.size()));
    if (i == j) continue;
    const double d = linalg::Distance(
        db.features()[static_cast<std::size_t>(i)],
        db.features()[static_cast<std::size_t>(j)]);
    if (db.categories()[static_cast<std::size_t>(i)] ==
        db.categories()[static_cast<std::size_t>(j)]) {
      within += d;
      ++nw;
    } else {
      across += d;
      ++na;
    }
  }
  ASSERT_GT(nw, 0);
  ASSERT_GT(na, 0);
  EXPECT_LT(within / nw, across / na);
}

TEST(FeatureDatabaseTest, BuildMatchesSerialStageByStage) {
  // Build renders and extracts on the global pool. 120 images is several of
  // its 16-image shards, so any QCLUSTER_THREADS above 1 takes the parallel
  // path; a serial render-and-extract loop must give the same database.
  ImageCollectionOptions opt = SmallCollection();
  opt.images_per_category = 20;
  const ImageCollection col(opt);
  for (const FeatureType type :
       {FeatureType::kColorMoments, FeatureType::kTexture,
        FeatureType::kColorHistogram}) {
    std::vector<Vector> raw;
    std::vector<int> categories;
    std::vector<int> themes;
    for (int id = 0; id < col.size(); ++id) {
      const image::Image img = col.Render(id);
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
      categories.push_back(col.category(id));
      themes.push_back(col.theme(id));
    }
    const FeatureDatabase serial = FeatureDatabase::FromRawFeatures(
        std::move(raw), std::move(categories), std::move(themes),
        DefaultReducedDim(type));
    const FeatureDatabase built = FeatureDatabase::Build(col, type);
    EXPECT_TRUE(built.features() == serial.features())
        << "type " << static_cast<int>(type);
    EXPECT_EQ(built.categories(), serial.categories());
    EXPECT_EQ(built.themes(), serial.themes());
  }
}

TEST(FeatureDatabaseTest, FromRawFeaturesMatchesSerialStandardizeAndPca) {
  // FromRawFeatures standardizes and projects rows on the global pool; 6,000
  // rows is several of its 1,024-row shards. The reference below is the
  // serial arithmetic spelled out: per-element sqrt, a centered copy per
  // row. Column 3 is constant, so its standardized value is 0.
  constexpr int kRows = 6000;
  constexpr int kDim = 12;
  constexpr int kReduced = 5;
  Rng rng(91);
  std::vector<Vector> raw;
  for (int i = 0; i < kRows; ++i) {
    Vector row = rng.GaussianVector(kDim);
    for (int j = 0; j < kDim; ++j) {
      row[static_cast<std::size_t>(j)] *= std::pow(10.0, j % 4 - 1);
    }
    row[3] = 7.25;
    raw.push_back(std::move(row));
  }

  std::vector<Vector> rows = raw;
  const std::size_t p = kDim;
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
  Result<linalg::Pca> pca = linalg::Pca::Fit(rows);
  ASSERT_TRUE(pca.ok());
  std::vector<double> expected;
  for (const Vector& r : rows) {
    const Vector centered = linalg::Sub(r, pca.value().mean());
    for (int c = 0; c < kReduced; ++c) {
      double sum = 0.0;
      for (int k = 0; k < kDim; ++k) {
        sum += pca.value().components()(k, c) *
               centered[static_cast<std::size_t>(k)];
      }
      expected.push_back(sum);
    }
  }

  const FeatureDatabase db = FeatureDatabase::FromRawFeatures(
      raw, std::vector<int>(kRows, 0), std::vector<int>(kRows, 0), kReduced);
  ASSERT_EQ(db.size(), kRows);
  ASSERT_EQ(db.dim(), kReduced);
  EXPECT_EQ(std::memcmp(db.features().row(0), expected.data(),
                        expected.size() * sizeof(double)),
            0);
}

TEST(FeatureDatabaseTest, FromRawFeaturesChecksArguments) {
  EXPECT_DEATH(FeatureDatabase::FromRawFeatures({}, {}, {}, 1), "empty");
}

TEST(FeatureDatabaseTest, DefaultReducedDims) {
  EXPECT_EQ(DefaultReducedDim(FeatureType::kColorMoments), 3);
  EXPECT_EQ(DefaultReducedDim(FeatureType::kTexture), 4);
}

}  // namespace
}  // namespace qcluster::dataset
