#ifndef QCLUSTER_IMAGE_COLOR_HISTOGRAM_H_
#define QCLUSTER_IMAGE_COLOR_HISTOGRAM_H_

#include "image/image.h"
#include "linalg/vector.h"

namespace qcluster::image {

/// Extracts a normalized 8 × 3 × 3 HSV histogram (72 entries summing to 1)
/// — the third classic CBIR color descriptor (QBIC/VisualSeek lineage
/// [10, 18]), provided alongside the paper's color moments for
/// experimentation. Hue is binned circularly over [0, 360), saturation and
/// value over [0, 1].
linalg::Vector ExtractColorHistogram(const Image& img);

}  // namespace qcluster::image

#endif  // QCLUSTER_IMAGE_COLOR_HISTOGRAM_H_
