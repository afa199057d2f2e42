#ifndef QCLUSTER_DATASET_FEATURE_IO_H_
#define QCLUSTER_DATASET_FEATURE_IO_H_

#include <string>

#include "common/status.h"
#include "dataset/feature_database.h"

namespace qcluster::dataset {

/// Writes `db`'s feature rows, categories and themes to `path` in the
/// library's binary format (magic + version, little-endian, doubles
/// verbatim), so expensive feature extraction over a large collection runs
/// once. Overwrites existing files.
[[nodiscard]] Status SaveFeatureDatabase(const FeatureDatabase& db,
                                         const std::string& path);

/// Reads a database written by SaveFeatureDatabase. Fails with kNotFound
/// when the file cannot be opened and kInvalidArgument on format mismatch
/// or a header whose sizes the file cannot hold.
[[nodiscard]] Result<FeatureDatabase> LoadFeatureDatabase(
    const std::string& path);

}  // namespace qcluster::dataset

#endif  // QCLUSTER_DATASET_FEATURE_IO_H_
