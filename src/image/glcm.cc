#include "image/glcm.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qcluster::image {

using linalg::Matrix;
using linalg::Vector;

Matrix ComputeGlcm(const Image& img, const GlcmOptions& options) {
  QCLUSTER_CHECK(options.levels >= 2);
  QCLUSTER_CHECK(options.dx != 0 || options.dy != 0);
  const int levels = options.levels;

  // Quantize luminance to the requested number of levels.
  std::vector<int> quantized(img.pixels().size());
  for (std::size_t i = 0; i < img.pixels().size(); ++i) {
    const double gray = RgbToGray(img.pixels()[i]);
    int q = static_cast<int>(gray * levels / 256.0);
    quantized[i] = std::clamp(q, 0, levels - 1);
  }
  auto level_at = [&](int x, int y) {
    return quantized[static_cast<std::size_t>(y) *
                         static_cast<std::size_t>(img.width()) +
                     static_cast<std::size_t>(x)];
  };

  Matrix glcm(levels, levels, 0.0);
  double total = 0.0;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const int nx = x + options.dx;
      const int ny = y + options.dy;
      if (!img.Contains(nx, ny)) continue;
      const int a = level_at(x, y);
      const int b = level_at(nx, ny);
      // Symmetric counting makes the matrix direction-insensitive.
      glcm(a, b) += 1.0;
      glcm(b, a) += 1.0;
      total += 2.0;
    }
  }
  QCLUSTER_CHECK_MSG(total > 0.0, "image too small for the GLCM offset");
  return glcm.Scale(1.0 / total);
}

Vector GlcmFeatures(const Matrix& glcm) {
  QCLUSTER_CHECK(glcm.rows() == glcm.cols());
  const int g = glcm.rows();

  // Marginal distribution (symmetric matrix: row and column marginals equal).
  Vector px(static_cast<std::size_t>(g), 0.0);
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < g; ++j) px[static_cast<std::size_t>(i)] += glcm(i, j);
  }
  double mean = 0.0;
  for (int i = 0; i < g; ++i) mean += i * px[static_cast<std::size_t>(i)];
  double variance = 0.0;
  for (int i = 0; i < g; ++i) {
    const double d = i - mean;
    variance += d * d * px[static_cast<std::size_t>(i)];
  }

  // Sum (i+j) and difference |i-j| distributions.
  Vector psum(static_cast<std::size_t>(2 * g - 1), 0.0);
  Vector pdiff(static_cast<std::size_t>(g), 0.0);
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < g; ++j) {
      const double p = glcm(i, j);
      psum[static_cast<std::size_t>(i + j)] += p;
      pdiff[static_cast<std::size_t>(std::abs(i - j))] += p;
    }
  }

  auto entropy_of = [](const Vector& dist) {
    double e = 0.0;
    for (double p : dist) {
      if (p > 0.0) e -= p * std::log2(p);
    }
    return e;
  };

  double energy = 0.0;
  double inertia = 0.0;
  double entropy = 0.0;
  double homogeneity = 0.0;
  double correlation_num = 0.0;
  double max_probability = 0.0;
  double dissimilarity = 0.0;
  double cluster_shade = 0.0;
  double cluster_prominence = 0.0;
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < g; ++j) {
      const double p = glcm(i, j);
      if (p == 0.0) continue;
      const double diff = i - j;
      const double dev_sum = (i - mean) + (j - mean);
      energy += p * p;
      inertia += diff * diff * p;
      entropy -= p * std::log2(p);
      homogeneity += p / (1.0 + diff * diff);
      correlation_num += (i - mean) * (j - mean) * p;
      max_probability = std::max(max_probability, p);
      dissimilarity += std::abs(diff) * p;
      cluster_shade += dev_sum * dev_sum * dev_sum * p;
      cluster_prominence += dev_sum * dev_sum * dev_sum * dev_sum * p;
    }
  }
  const double correlation =
      variance > 1e-12 ? correlation_num / variance : 0.0;

  double sum_average = 0.0;
  for (std::size_t k = 0; k < psum.size(); ++k) {
    sum_average += static_cast<double>(k) * psum[k];
  }
  double sum_variance = 0.0;
  for (std::size_t k = 0; k < psum.size(); ++k) {
    const double d = static_cast<double>(k) - sum_average;
    sum_variance += d * d * psum[k];
  }
  const double sum_entropy = entropy_of(psum);

  double diff_average = 0.0;
  for (std::size_t k = 0; k < pdiff.size(); ++k) {
    diff_average += static_cast<double>(k) * pdiff[k];
  }
  double diff_variance = 0.0;
  for (std::size_t k = 0; k < pdiff.size(); ++k) {
    const double d = static_cast<double>(k) - diff_average;
    diff_variance += d * d * pdiff[k];
  }
  const double diff_entropy = entropy_of(pdiff);

  Vector feature(kGlcmFeatureDim);
  feature[0] = energy;
  feature[1] = inertia;
  feature[2] = entropy;
  feature[3] = homogeneity;
  feature[4] = correlation;
  feature[5] = variance;
  feature[6] = sum_average;
  feature[7] = sum_variance;
  feature[8] = sum_entropy;
  feature[9] = diff_average;
  feature[10] = diff_variance;
  feature[11] = diff_entropy;
  feature[12] = max_probability;
  feature[13] = dissimilarity;
  feature[14] = cluster_shade;
  feature[15] = cluster_prominence;
  return feature;
}

Vector ExtractTextureFeatures(const Image& img, const GlcmOptions& options) {
  return GlcmFeatures(ComputeGlcm(img, options));
}

}  // namespace qcluster::image
