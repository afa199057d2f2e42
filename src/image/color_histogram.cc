#include "image/color_histogram.h"

#include <algorithm>

#include "common/check.h"

namespace qcluster::image {

namespace {

constexpr int kHueBins = 8;
constexpr int kSaturationBins = 3;
constexpr int kValueBins = 3;

}  // namespace

linalg::Vector ExtractColorHistogram(const Image& img) {
  QCLUSTER_CHECK(!img.pixels().empty());

  linalg::Vector histogram(kHueBins * kSaturationBins * kValueBins, 0.0);
  for (const Rgb& px : img.pixels()) {
    double h, s, v;
    RgbToHsv(px, &h, &s, &v);
    const int hb = std::min(static_cast<int>(h / 360.0 * kHueBins),
                            kHueBins - 1);
    const int sb =
        std::min(static_cast<int>(s * kSaturationBins), kSaturationBins - 1);
    const int vb = std::min(static_cast<int>(v * kValueBins), kValueBins - 1);
    const int bin = (hb * kSaturationBins + sb) * kValueBins + vb;
    histogram[static_cast<std::size_t>(bin)] += 1.0;
  }
  const double inv_n = 1.0 / static_cast<double>(img.pixels().size());
  for (double& b : histogram) b *= inv_n;
  return histogram;
}

}  // namespace qcluster::image
