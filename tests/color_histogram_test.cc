#include "image/color_histogram.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "image/draw.h"

namespace qcluster::image {
namespace {

TEST(ColorHistogramTest, NormalizedAndDimensioned) {
  Rng rng(271);
  Image img(16, 16, Rgb{90, 140, 200});
  AddUniformNoise(img, 60, rng);
  const linalg::Vector h = ExtractColorHistogram(img);
  EXPECT_EQ(h.size(), 8u * 3u * 3u);
  double total = 0.0;
  for (double b : h) {
    EXPECT_GE(b, 0.0);
    total += b;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ColorHistogramTest, UniformImageSingleBin) {
  const Image img(8, 8, HsvToRgb(120.0, 0.8, 0.8));
  const linalg::Vector h = ExtractColorHistogram(img);
  int nonzero = 0;
  for (double b : h) {
    if (b > 0.0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1);
}

TEST(ColorHistogramTest, DistinguishesHues) {
  // Uniform red and uniform blue each put all their mass in one bin, and
  // not in the same one.
  const linalg::Vector red =
      ExtractColorHistogram(Image(8, 8, Rgb{220, 30, 30}));
  const linalg::Vector blue =
      ExtractColorHistogram(Image(8, 8, Rgb{30, 30, 220}));
  const auto peak = [](const linalg::Vector& h) {
    return std::max_element(h.begin(), h.end()) - h.begin();
  };
  EXPECT_DOUBLE_EQ(red[static_cast<std::size_t>(peak(red))], 1.0);
  EXPECT_DOUBLE_EQ(blue[static_cast<std::size_t>(peak(blue))], 1.0);
  EXPECT_NE(peak(red), peak(blue));
}

}  // namespace
}  // namespace qcluster::image
