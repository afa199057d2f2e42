#ifndef QCLUSTER_DATASET_FEATURE_IO_H_
#define QCLUSTER_DATASET_FEATURE_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/flat_view.h"

namespace qcluster::dataset {

/// A feature database stripped to what experiments consume: reduced feature
/// vectors plus per-image ground-truth labels. Serializable, so expensive
/// feature extraction over large collections runs once and is shared across
/// benchmark binaries.
struct FeatureSet {
  linalg::FlatBlock features;  ///< One row per image.
  std::vector<int> categories;
  std::vector<int> themes;

  int size() const { return static_cast<int>(features.size()); }
  int dim() const { return features.dim(); }
};

/// Writes `set` to `path` in the library's binary format (magic + version,
/// little-endian, doubles verbatim). Overwrites existing files.
[[nodiscard]] Status SaveFeatureSet(const FeatureSet& set,
                                    const std::string& path);

/// Reads a FeatureSet written by SaveFeatureSet. Fails with kNotFound when
/// the file cannot be opened and kInvalidArgument on format mismatch or a
/// header whose sizes the file cannot hold.
[[nodiscard]] Result<FeatureSet> LoadFeatureSet(const std::string& path);

}  // namespace qcluster::dataset

#endif  // QCLUSTER_DATASET_FEATURE_IO_H_
