#ifndef QCLUSTER_IMAGE_GLCM_H_
#define QCLUSTER_IMAGE_GLCM_H_

#include "image/image.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace qcluster::image {

/// Number of texture features derived from the co-occurrence matrix
/// ("energy, inertia, entropy, homogeneity, etc." — the paper uses a
/// 16-element vector, Sec. 5).
inline constexpr int kGlcmFeatureDim = 16;

/// Options for co-occurrence matrix construction.
struct GlcmOptions {
  /// Number of gray levels the 0-255 range is quantized into. 32 keeps the
  /// matrix well populated for 64x64 rasters while preserving texture
  /// contrast structure.
  int levels = 32;
  /// Pixel offset defining adjacency; (1, 0) is the paper's "adjacent
  /// pixel". The matrix is symmetrized, so (1, 0) also covers (-1, 0).
  int dx = 1;
  int dy = 0;
};

/// Builds the normalized, symmetrized gray-level co-occurrence matrix of
/// `img` (levels x levels, entries sum to 1).
linalg::Matrix ComputeGlcm(const Image& img, const GlcmOptions& options = {});

/// Derives the 16 Haralick-style scalar features from a normalized GLCM:
///  0 energy (angular second moment)   8 sum entropy
///  1 inertia (contrast)               9 difference average
///  2 entropy                         10 difference variance
///  3 homogeneity (inv. diff. moment) 11 difference entropy
///  4 correlation                     12 maximum probability
///  5 variance                        13 dissimilarity
///  6 sum average                     14 cluster shade
///  7 sum variance                    15 cluster prominence
linalg::Vector GlcmFeatures(const linalg::Matrix& glcm);

/// Convenience: ComputeGlcm + GlcmFeatures.
linalg::Vector ExtractTextureFeatures(const Image& img,
                                      const GlcmOptions& options = {});

}  // namespace qcluster::image

#endif  // QCLUSTER_IMAGE_GLCM_H_
