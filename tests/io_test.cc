// Round-trip tests for the two serialization formats: the feature-set
// cache (dataset/feature_io) and the PPM raster writer (image/ppm_io).

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/feature_io.h"
#include "image/draw.h"
#include "image/ppm_io.h"

namespace qcluster {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(FeatureIoTest, RoundTrip) {
  Rng rng(231);
  dataset::FeatureSet set;
  for (int i = 0; i < 57; ++i) {
    set.features.push_back(rng.GaussianVector(5));
    set.categories.push_back(i % 7);
    set.themes.push_back(i % 3);
  }
  const std::string path = TempPath("features_roundtrip.bin");
  ASSERT_TRUE(dataset::SaveFeatureSet(set, path).ok());
  Result<dataset::FeatureSet> loaded = dataset::LoadFeatureSet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 57);
  EXPECT_EQ(loaded.value().dim(), 5);
  EXPECT_EQ(loaded.value().features, set.features);
  EXPECT_EQ(loaded.value().categories, set.categories);
  EXPECT_EQ(loaded.value().themes, set.themes);
  std::remove(path.c_str());
}

TEST(FeatureIoTest, MissingFileReportsNotFound) {
  Result<dataset::FeatureSet> r =
      dataset::LoadFeatureSet(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(FeatureIoTest, CorruptMagicRejected) {
  const std::string path = TempPath("bad_magic.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage header", f);
  std::fclose(f);
  Result<dataset::FeatureSet> r = dataset::LoadFeatureSet(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(FeatureIoTest, TruncatedPayloadRejected) {
  Rng rng(232);
  dataset::FeatureSet set;
  set.features.push_back(rng.GaussianVector(8));
  set.categories.push_back(0);
  set.themes.push_back(0);
  const std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(dataset::SaveFeatureSet(set, path).ok());
  // Truncate the file in the middle of the feature payload.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(dataset::LoadFeatureSet(path).ok());
  std::remove(path.c_str());
}

TEST(FeatureIoTest, HeaderClaimingMoreThanTheFileRejected) {
  // A valid 16-byte header whose n × dim would need ~140 TB: rejected from
  // the file size before anything is allocated.
  const std::string path = TempPath("oversized_header.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint32_t header[] = {0x51434653, 1, (1u << 28) - 1, 65535};
  ASSERT_EQ(std::fwrite(header, sizeof(header), 1, f), 1u);
  std::fclose(f);
  const Result<dataset::FeatureSet> r = dataset::LoadFeatureSet(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PpmIoTest, RoundTrip) {
  Rng rng(233);
  image::Image img(17, 9);
  image::AddUniformNoise(img, 120, rng);
  const std::string path = TempPath("roundtrip.ppm");
  ASSERT_TRUE(image::WritePpm(img, path).ok());
  Result<image::Image> loaded = image::ReadPpm(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().width(), 17);
  EXPECT_EQ(loaded.value().height(), 9);
  EXPECT_EQ(loaded.value().pixels(), img.pixels());
  std::remove(path.c_str());
}

TEST(PpmIoTest, RejectsNonPpm) {
  const std::string path = TempPath("not_a_ppm.ppm");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("P5\n1 1\n255\nx", f);
  std::fclose(f);
  EXPECT_FALSE(image::ReadPpm(path).ok());
  std::remove(path.c_str());
}

/// Writes `bytes` to a fresh file and returns ReadPpm's status code.
StatusCode ReadPpmBytes(const char* name, const std::string& bytes) {
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return StatusCode::kInternal;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  const StatusCode code = image::ReadPpm(path).status().code();
  std::remove(path.c_str());
  return code;
}

TEST(PpmIoTest, RejectsHeaderIntegerAboveIntMax) {
  // Eleven digits: accumulating them in an int would overflow.
  EXPECT_EQ(ReadPpmBytes("huge_width.ppm", "P6\n99999999999 1\n255\n"),
            StatusCode::kInvalidArgument);
}

TEST(PpmIoTest, RejectsHeaderClaimingMoreThanTheFile) {
  // 19 bytes asking for a 65535 × 65535 raster (12.9 GB): rejected from the
  // file size before the image is allocated.
  EXPECT_EQ(ReadPpmBytes("huge_raster.ppm", "P6\n65535 65535\n255\n"),
            StatusCode::kInvalidArgument);
}

TEST(PpmIoTest, HandlesCommentsInHeader) {
  const std::string path = TempPath("comments.ppm");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("P6\n# a comment line\n2 1\n255\n", f);
  const unsigned char px[6] = {1, 2, 3, 4, 5, 6};
  std::fwrite(px, 1, 6, f);
  std::fclose(f);
  Result<image::Image> loaded = image::ReadPpm(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().at(1, 0), (image::Rgb{4, 5, 6}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qcluster
