#ifndef QCLUSTER_LINALG_FLAT_VIEW_H_
#define QCLUSTER_LINALG_FLAT_VIEW_H_

#include <cstddef>
#include <new>

#include "linalg/vector.h"

namespace qcluster::linalg {

/// Minimal std::allocator drop-in that over-aligns every allocation to
/// `Alignment` bytes. FlatBlock uses it so a block's base pointer starts on
/// a cache line, which keeps the batched kernels' strided row reads from
/// straddling an extra line on row 0. The SIMD kernels still issue
/// unaligned loads — rows of arbitrary `dim` land off-alignment no matter
/// what — so alignment here is a throughput hint, never a correctness
/// requirement.
template <class T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two covering alignof(T)");

  AlignedAllocator() = default;
  template <class U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// Cache-line-aligned contiguous double storage: the backing buffer type for
/// FlatBlock and for scratch blocks that pack rows for a batch kernel.
using AlignedBuffer = std::vector<double, AlignedAllocator<double, 64>>;

/// A non-owning view of `n` points of dimension `dim` stored contiguously in
/// row-major order — the structure-of-arrays layout the batched distance
/// kernels scan. Rows are adjacent in memory, so a full scan is one linear
/// sweep instead of n pointer chases through std::vector headers.
struct FlatView {
  const double* data = nullptr;
  std::size_t n = 0;
  int dim = 0;

  const double* row(std::size_t i) const {
    return data + i * static_cast<std::size_t>(dim);
  }
  bool empty() const { return n == 0; }

  /// The sub-view of rows [begin, end).
  FlatView Slice(std::size_t begin, std::size_t end) const {
    return FlatView{row(begin), end - begin, dim};
  }
};

/// An owning contiguous block of `size()` points of dimension `dim()`, row
/// after row: the one store of a database's points. Every index, metric
/// and feedback method reads its rows in place, and a full scan is one
/// linear sweep. The base pointer is 64-byte aligned (see AlignedAllocator
/// above).
class FlatBlock {
 public:
  FlatBlock() = default;

  /// `n` zero rows of dimension `dim`, to be filled through mutable_row.
  FlatBlock(std::size_t n, int dim)
      : data_(n * static_cast<std::size_t>(dim)), n_(n), dim_(dim) {}

  /// Copies `points` (all of equal dimension) into one contiguous buffer.
  /// An empty input yields an empty block.
  static FlatBlock FromPoints(const std::vector<Vector>& points) {
    FlatBlock block;
    if (points.empty()) return block;
    block.dim_ = static_cast<int>(points.front().size());
    block.n_ = points.size();
    block.data_.reserve(points.size() * points.front().size());
    for (const Vector& p : points) {
      block.data_.insert(block.data_.end(), p.begin(), p.end());
    }
    return block;
  }

  /// Non-owning window over the packed rows.
  // qlint: snapshot(valid until the owning block is destroyed or moved)
  FlatView view() const { return FlatView{data_.data(), n_, dim_}; }
  std::size_t size() const { return n_; }
  int dim() const { return dim_; }
  bool empty() const { return n_ == 0; }

  /// The dim() doubles of row `i`.
  const double* row(std::size_t i) const {
    return data_.data() + i * static_cast<std::size_t>(dim_);
  }
  double* mutable_row(std::size_t i) {
    return data_.data() + i * static_cast<std::size_t>(dim_);
  }

  /// A copy of row `i`, for callers that keep a point past the block.
  Vector operator[](std::size_t i) const {
    return Vector(row(i), row(i) + dim_);
  }

  /// Same shape and every coordinate equal (NaN is unequal to itself).
  friend bool operator==(const FlatBlock& a, const FlatBlock& b) = default;

 private:
  AlignedBuffer data_;
  std::size_t n_ = 0;
  int dim_ = 0;
};

}  // namespace qcluster::linalg

#endif  // QCLUSTER_LINALG_FLAT_VIEW_H_
