#include "dataset/feature_io.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

namespace qcluster::dataset {
namespace {

constexpr std::uint32_t kMagic = 0x51434653;  // "QCFS".
constexpr std::uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteU32(std::FILE* f, std::uint32_t v) {
  return std::fwrite(&v, sizeof(v), 1, f) == 1;
}

bool ReadU32(std::FILE* f, std::uint32_t* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}

}  // namespace

Status SaveFeatureDatabase(const FeatureDatabase& db,
                           const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::NotFound("cannot open for writing: " + path);

  const std::uint32_t n = static_cast<std::uint32_t>(db.size());
  const std::uint32_t dim = static_cast<std::uint32_t>(db.dim());
  if (!WriteU32(f.get(), kMagic) || !WriteU32(f.get(), kVersion) ||
      !WriteU32(f.get(), n) || !WriteU32(f.get(), dim)) {
    return Status::Internal("short write on header: " + path);
  }
  const std::size_t values = std::size_t{n} * dim;
  if (values > 0 && std::fwrite(db.features().row(0), sizeof(double),
                                values, f.get()) != values) {
    return Status::Internal("short write on features: " + path);
  }
  if (n > 0 &&
      (std::fwrite(db.categories().data(), sizeof(int), n, f.get()) != n ||
       std::fwrite(db.themes().data(), sizeof(int), n, f.get()) != n)) {
    return Status::Internal("short write on labels: " + path);
  }
  return Status::OK();
}

Result<FeatureDatabase> LoadFeatureDatabase(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open: " + path);

  std::uint32_t magic = 0, version = 0, n = 0, dim = 0;
  if (!ReadU32(f.get(), &magic) || !ReadU32(f.get(), &version) ||
      !ReadU32(f.get(), &n) || !ReadU32(f.get(), &dim)) {
    return Status::InvalidArgument("truncated header: " + path);
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported version in " + path);
  }

  // The header sizes the allocation below, so check its claim against the
  // bytes actually left before trusting it. Each point carries dim doubles
  // plus two int labels; n ≤ left / per_point cannot overflow where
  // n · per_point could.
  const long header_end = std::ftell(f.get());
  if (header_end < 0 || std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::Internal("cannot seek in " + path);
  }
  const long file_end = std::ftell(f.get());
  if (file_end < header_end || std::fseek(f.get(), header_end, SEEK_SET) != 0) {
    return Status::Internal("cannot seek in " + path);
  }
  const auto left = static_cast<std::uint64_t>(file_end - header_end);
  const std::uint64_t per_point =
      std::uint64_t{dim} * sizeof(double) + 2 * sizeof(int);
  if (n > left / per_point) {
    return Status::InvalidArgument("header claims more data than " + path +
                                   " holds");
  }
  if (dim > static_cast<std::uint32_t>(INT_MAX)) {
    return Status::InvalidArgument("dimension out of range in " + path);
  }

  linalg::FlatBlock features(n, static_cast<int>(dim));
  const std::size_t values = std::size_t{n} * dim;
  if (values > 0 && std::fread(features.mutable_row(0), sizeof(double),
                               values, f.get()) != values) {
    return Status::InvalidArgument("truncated features in " + path);
  }
  std::vector<int> categories(n);
  std::vector<int> themes(n);
  if (n > 0 &&
      (std::fread(categories.data(), sizeof(int), n, f.get()) != n ||
       std::fread(themes.data(), sizeof(int), n, f.get()) != n)) {
    return Status::InvalidArgument("truncated labels in " + path);
  }
  return FeatureDatabase(std::move(features), std::move(categories),
                         std::move(themes));
}

}  // namespace qcluster::dataset
