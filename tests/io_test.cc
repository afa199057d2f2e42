// Round-trip and seeded mutation tests for the two serialization formats:
// the feature-set cache (dataset/feature_io) and the PPM raster writer
// (image/ppm_io).

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

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
  std::vector<linalg::Vector> rows;
  std::vector<int> categories;
  std::vector<int> themes;
  for (int i = 0; i < 57; ++i) {
    rows.push_back(rng.GaussianVector(5));
    categories.push_back(i % 7);
    themes.push_back(i % 3);
  }
  const dataset::FeatureDatabase db(linalg::FlatBlock::FromPoints(rows),
                                    categories, themes);
  const std::string path = TempPath("features_roundtrip.bin");
  ASSERT_TRUE(dataset::SaveFeatureDatabase(db, path).ok());
  Result<dataset::FeatureDatabase> loaded =
      dataset::LoadFeatureDatabase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 57);
  EXPECT_EQ(loaded.value().dim(), 5);
  EXPECT_EQ(loaded.value().features(), db.features());
  EXPECT_EQ(loaded.value().categories(), db.categories());
  EXPECT_EQ(loaded.value().themes(), db.themes());
  std::remove(path.c_str());
}

TEST(FeatureIoTest, MissingFileReportsNotFound) {
  Result<dataset::FeatureDatabase> r =
      dataset::LoadFeatureDatabase(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(FeatureIoTest, CorruptMagicRejected) {
  const std::string path = TempPath("bad_magic.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage header", f);
  std::fclose(f);
  Result<dataset::FeatureDatabase> r = dataset::LoadFeatureDatabase(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(FeatureIoTest, TruncatedPayloadRejected) {
  Rng rng(232);
  const dataset::FeatureDatabase db(
      linalg::FlatBlock::FromPoints({rng.GaussianVector(8)}), {0}, {0});
  const std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(dataset::SaveFeatureDatabase(db, path).ok());
  // Truncate the file in the middle of the feature payload.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(dataset::LoadFeatureDatabase(path).ok());
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
  const Result<dataset::FeatureDatabase> r =
      dataset::LoadFeatureDatabase(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

std::string ReadBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// What the seeded mutation loops know about one file format.
struct Format {
  std::string valid;                    ///< A well-formed file.
  std::vector<std::size_t> boundaries;  ///< Header field edges, in bytes.
  std::vector<std::string> words;       ///< Random header words.
  std::vector<std::string> sizes;       ///< 0, 1, 2^31 − 1, 2^32 − 1.
  std::vector<int> size_fields;         ///< n and dim, or width and height.
  int fields = 0;                       ///< Header fields, by index.
  /// `bytes` with header field `field` replaced by `word`.
  std::function<std::string(const std::string& bytes, int field,
                            const std::string& word)>
      replace;
};

/// One seeded mutation of format.valid: bit flips, truncation at a header
/// boundary, a random word in a random header field, or a hostile size in
/// a size field.
std::string Mutate(const Format& format, Rng& rng) {
  std::string out = format.valid;
  const auto pick = [&rng](const auto& options) {
    return options[static_cast<std::size_t>(rng.UniformInt(options.size()))];
  };
  switch (rng.UniformInt(4)) {
    case 0:
      for (std::uint64_t i = 0, flips = 1 + rng.UniformInt(3); i < flips;
           ++i) {
        const std::size_t at = rng.UniformInt(out.size());
        out[at] = static_cast<char>(out[at] ^ (1 << rng.UniformInt(8)));
      }
      return out;
    case 1:
      out.resize(pick(format.boundaries));
      return out;
    case 2:
      return format.replace(
          out, static_cast<int>(rng.UniformInt(format.fields)),
          pick(format.words));
    default:
      return format.replace(out, pick(format.size_fields), pick(format.sizes));
  }
}

/// `v` as 4 little-endian bytes.
std::string U32Bytes(std::uint32_t v) {
  std::string out(4, '\0');
  std::memcpy(out.data(), &v, 4);
  return out;
}

constexpr std::uint32_t kHostileSizes[] = {0u, 1u, 0x7fffffffu, 0xffffffffu};
constexpr int kMutations = 3000;

TEST(FeatureIoTest, SeededMutationsReturnStatusAndStayInBounds) {
  Rng rng(234);
  std::vector<linalg::Vector> rows;
  std::vector<int> categories;
  std::vector<int> themes;
  for (int i = 0; i < 6; ++i) {
    rows.push_back(rng.GaussianVector(3));
    categories.push_back(i);
    themes.push_back(i % 2);
  }
  const dataset::FeatureDatabase db(linalg::FlatBlock::FromPoints(rows),
                                    categories, themes);
  const std::string path = TempPath("mutated_features.bin");
  ASSERT_TRUE(dataset::SaveFeatureDatabase(db, path).ok());

  // Header: four little-endian words — magic, version, n, dim.
  Format format;
  format.valid = ReadBytes(path);
  ASSERT_EQ(format.valid.size(), 16u + 6u * 3u * 8u + 2u * 6u * 4u);
  format.boundaries = {0, 2, 4, 8, 12, 16, 100, format.valid.size() - 1};
  for (int i = 0; i < 16; ++i) {
    format.words.push_back(
        U32Bytes(static_cast<std::uint32_t>(rng.NextUint64())));
  }
  for (std::uint32_t v : kHostileSizes) format.sizes.push_back(U32Bytes(v));
  format.size_fields = {2, 3};
  format.fields = 4;
  format.replace = [](const std::string& bytes, int field,
                      const std::string& word) {
    std::string out = bytes;
    const auto at = static_cast<std::size_t>(4 * field);
    if (out.size() >= at + 4) out.replace(at, 4, word);
    return out;
  };

  int accepted = 0;
  for (int c = 0; c < kMutations; ++c) {
    const std::string bytes = Mutate(format, rng);
    WriteBytes(path, bytes);
    const Result<dataset::FeatureDatabase> r =
        dataset::LoadFeatureDatabase(path);
    if (!r.ok()) continue;
    ++accepted;
    const dataset::FeatureDatabase& got = r.value();
    ASSERT_GE(got.size(), 0) << "case " << c;
    ASSERT_GE(got.dim(), 0) << "case " << c;
    const auto n = static_cast<std::uint64_t>(got.size());
    const auto dim = static_cast<std::uint64_t>(got.dim());
    EXPECT_EQ(got.features().view().n, n) << "case " << c;
    EXPECT_EQ(got.categories().size(), n) << "case " << c;
    EXPECT_EQ(got.themes().size(), n) << "case " << c;
    EXPECT_LE(16 + n * (dim * 8 + 8), bytes.size()) << "case " << c;
  }
  // Payload bit flips and small sizes still load: the accept path runs.
  EXPECT_GT(accepted, kMutations / 10);
  std::remove(path.c_str());
}

TEST(PpmIoTest, SeededMutationsReturnStatusAndStayInBounds) {
  Rng rng(235);
  image::Image img(4, 3);
  image::AddUniformNoise(img, 200, rng);
  const std::string path = TempPath("mutated.ppm");
  ASSERT_TRUE(image::WritePpm(img, path).ok());

  // Header: "P6\n4 3\n255\n" — magic, width, height, maxval.
  const std::string header = "P6\n4 3\n255\n";
  Format format;
  format.valid = ReadBytes(path);
  ASSERT_EQ(format.valid.substr(0, header.size()), header);
  format.boundaries = {0, 1, 2, 3, 4, 5, 6, 7, 10, 11,
                       format.valid.size() - 1};
  format.words = {"P5", "P6",  "-1", "0",   "256", "65535", "99999999999",
                  "#",  "# \n1", "x", "", "255 255", "1e9"};
  for (std::uint32_t v : kHostileSizes) {
    format.sizes.push_back(std::to_string(v));
  }
  format.size_fields = {1, 2};
  format.fields = 4;
  format.replace = [&header](const std::string& bytes, int field,
                             const std::string& word) {
    std::vector<std::string> tokens{"P6", "4", "3", "255"};
    tokens[static_cast<std::size_t>(field)] = word;
    return tokens[0] + "\n" + tokens[1] + " " + tokens[2] + "\n" +
           tokens[3] + "\n" + bytes.substr(header.size());
  };

  int accepted = 0;
  for (int c = 0; c < kMutations; ++c) {
    const std::string bytes = Mutate(format, rng);
    WriteBytes(path, bytes);
    const Result<image::Image> r = image::ReadPpm(path);
    if (!r.ok()) continue;
    ++accepted;
    const image::Image& got = r.value();
    ASSERT_GT(got.width(), 0) << "case " << c;
    ASSERT_GT(got.height(), 0) << "case " << c;
    const auto pixels = static_cast<std::uint64_t>(got.width()) *
                        static_cast<std::uint64_t>(got.height());
    EXPECT_EQ(got.pixels().size(), pixels) << "case " << c;
    EXPECT_LE(3 * pixels, bytes.size()) << "case " << c;
  }
  EXPECT_GT(accepted, kMutations / 10);
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
