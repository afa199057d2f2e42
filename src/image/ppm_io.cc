#include "image/ppm_io.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>

namespace qcluster::image {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Skips PPM whitespace and '#' comment lines, then reads one integer.
/// Fails on a missing number or one above INT_MAX.
bool ReadPpmInt(std::FILE* f, int* out) {
  int c;
  for (;;) {
    c = std::fgetc(f);
    if (c == '#') {
      while (c != '\n' && c != EOF) c = std::fgetc(f);
    } else if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
      break;
    }
  }
  if (c == EOF) return false;
  int value = 0;
  bool any = false;
  while (c >= '0' && c <= '9') {
    if (value > (INT_MAX - (c - '0')) / 10) return false;
    value = value * 10 + (c - '0');
    any = true;
    c = std::fgetc(f);
  }
  *out = value;
  return any;
}

}  // namespace

Status WritePpm(const Image& img, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::NotFound("cannot open for writing: " + path);
  std::fprintf(f.get(), "P6\n%d %d\n255\n", img.width(), img.height());
  for (const Rgb& px : img.pixels()) {
    const unsigned char bytes[3] = {px.r, px.g, px.b};
    if (std::fwrite(bytes, 1, 3, f.get()) != 3) {
      return Status::Internal("short write: " + path);
    }
  }
  return Status::OK();
}

Result<Image> ReadPpm(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open: " + path);
  char magic[3] = {0, 0, 0};
  if (std::fread(magic, 1, 2, f.get()) != 2 || magic[0] != 'P' ||
      magic[1] != '6') {
    return Status::InvalidArgument("not a P6 PPM: " + path);
  }
  int width = 0, height = 0, maxval = 0;
  if (!ReadPpmInt(f.get(), &width) || !ReadPpmInt(f.get(), &height) ||
      !ReadPpmInt(f.get(), &maxval)) {
    return Status::InvalidArgument("malformed PPM header: " + path);
  }
  if (width <= 0 || height <= 0 || maxval != 255) {
    return Status::InvalidArgument("unsupported PPM parameters: " + path);
  }

  // The header sizes the raster allocated below, so check its claim against
  // the bytes actually left first. Both sides are below 2^31, so the 64-bit
  // product cannot overflow.
  const long header_end = std::ftell(f.get());
  if (header_end < 0 || std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::Internal("cannot seek in " + path);
  }
  const long file_end = std::ftell(f.get());
  if (file_end < header_end || std::fseek(f.get(), header_end, SEEK_SET) != 0) {
    return Status::Internal("cannot seek in " + path);
  }
  if (std::uint64_t{3} * static_cast<std::uint64_t>(width) *
          static_cast<std::uint64_t>(height) >
      static_cast<std::uint64_t>(file_end - header_end)) {
    return Status::InvalidArgument("truncated PPM pixels: " + path);
  }
  Image img(width, height);
  for (Rgb& px : img.pixels()) {
    unsigned char bytes[3];
    if (std::fread(bytes, 1, 3, f.get()) != 3) {
      return Status::InvalidArgument("truncated PPM pixels: " + path);
    }
    px = Rgb{bytes[0], bytes[1], bytes[2]};
  }
  return img;
}

}  // namespace qcluster::image
