#ifndef QCLUSTER_LINALG_SIMD_KERNELS_H_
#define QCLUSTER_LINALG_SIMD_KERNELS_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "linalg/simd.h"

// Kernel bodies shared by every dispatch tier. The vector axis is the
// *batch* dimension: a batch kernel scores P::kWidth contiguous rows at a
// time, one row per SIMD lane, and the element loop walks the dimension
// sequentially — so each lane performs exactly the operation sequence of
// the scalar row kernel, in the same order, regardless of tier or row
// width. Leftover rows (n % kWidth) fall through to the row kernel itself.
// That makes scalar/batch and cross-tier byte-identity structural rather
// than an argument about reduction trees, and it vectorizes at *any*
// dimension — including the paper's 3-dim color features, where a
// within-row lane scheme would have no vector work at all.
//
// The row kernels below are deliberately plain sequential scalar code:
// they define the canonical arithmetic order every lane reproduces. Tier
// translation units are compiled with -ffp-contract=off so the compiler
// cannot fuse the explicit multiply/add pairs into FMAs in either the
// scalar or the vector bodies (fusing only some of them would break
// parity).
//
// A lane policy provides (kWidth == 1 policies need nothing else — every
// batch kernel degrades to the row-kernel loop):
//   static constexpr int kWidth;               // rows per batch step
//   using V = ...;                             // kWidth doubles, 1 row each
//   using M = ...;                             // per-lane boolean mask
//   static V Zero();
//   static V Broadcast(double x);              // splat one query element
//   static V Gather(const double* const* rows, int i);   // lane r=rows[r][i]
//   static V Load(const double* p);            // lanes = p[0..kWidth-1]
//   static V Add(V, V); Sub; Mul; Div;         // element-wise
//   static V MaxZero(V v);                     // per lane: v <= 0 ? +0 : v
//   static M FalseMask();
//   static M CmpLE(V a, V b);                  // per lane: a <= b (quiet)
//   static M OrMask(M, M);
//   static V Select(M m, V yes, V no);         // per lane: m ? yes : no
//   static void Store(double* out, V v);       // spill lanes

namespace qcluster::linalg::simd::internal {

// ---------------------------------------------------------------------------
// Canonical row kernels: one point, sequential element order. Shared by all
// tiers (the dispatch table of every tier points at its copy of these), so
// the per-point entry points cannot drift from the batch lanes that mirror
// them.
//
// Internal linkage: each tier TU gets its own copy, compiled with that TU's
// flags. As plain `inline` functions they would be weak symbols, and the
// linker would keep one tier's copy for every table — the AVX2 TU's
// VEX-encoded one, if its object came first, faulting QCLUSTER_SIMD=scalar
// on a CPU without AVX2. tests/simd_layout_test.py checks the binary.
namespace {

inline double SquaredL2RowRef(const double* q, const double* x, int d) {
  double sum = 0.0;
  for (int i = 0; i < d; ++i) {
    const double diff = q[i] - x[i];
    sum += diff * diff;
  }
  return sum;
}

inline double WeightedSqRowRef(const double* w, const double* q,
                               const double* x, int d) {
  double sum = 0.0;
  for (int i = 0; i < d; ++i) {
    const double diff = x[i] - q[i];
    sum += (w[i] * diff) * diff;
  }
  return sum;
}

inline double DotRowRef(const double* a, const double* b, int d) {
  double sum = 0.0;
  for (int i = 0; i < d; ++i) sum += a[i] * b[i];
  return sum;
}

inline double QuadraticFormRowRef(const double* a, const double* v, int d) {
  // Outer sum over matrix rows, inner dot sequential: the deterministic
  // split of the O(d²) form that the batch lanes replicate.
  double sum = 0.0;
  const std::size_t stride = static_cast<std::size_t>(d);
  for (int r = 0; r < d; ++r) {
    sum += v[r] * DotRowRef(a + static_cast<std::size_t>(r) * stride, v, d);
  }
  return sum;
}

inline double MahalanobisRowRef(const double* a, const double* aq,
                                double q_aq, const double* x, int d) {
  // (x−q)ᵀA(x−q) = xᵀAx − 2·xᵀ(Aq) + qᵀAq with A·q cached by the caller.
  // The expansion can go epsilon-negative near the query through
  // cancellation; clamp so distances stay comparable with the non-negative
  // rectangle bounds. NaN fails the `<= 0` test and passes through, so a
  // NaN row ranks after every number (index::NeighborOrder), not first.
  const double x_ax = QuadraticFormRowRef(a, x, d);
  const double x_aq = DotRowRef(x, aq, d);
  const double value = x_ax - 2.0 * x_aq + q_aq;
  return value <= 0.0 ? 0.0 : value;
}

inline double ComponentDistanceRef(const QuadComponentView& c,
                                   const double* x, int d, double* scratch) {
  if (c.diagonal != nullptr) return WeightedSqRowRef(c.diagonal, c.query, x, d);
  for (int i = 0; i < d; ++i) scratch[i] = x[i] - c.query[i];
  return QuadraticFormRowRef(c.full, scratch, d);
}

inline double HarmonicRowRef(const HarmonicSpec& spec, const double* x, int d,
                             double* scratch) {
  // Eq. 5 accumulated inline, component order fixed. A zero per-component
  // distance means the point sits on a representative: the fuzzy OR yields
  // 0. NaN distances propagate through the denominator unharmed (NaN <= 0
  // is false), matching the lane-masked batch combine exactly.
  double denom = 0.0;
  for (std::size_t j = 0; j < spec.count; ++j) {
    const double d2 = ComponentDistanceRef(spec.components[j], x, d, scratch);
    if (d2 <= 0.0) return 0.0;
    denom += spec.components[j].weight / d2;
  }
  if (denom <= 0.0) return std::numeric_limits<double>::infinity();
  return spec.total_weight / denom;
}

inline double WeightedRectRowRef(const double* w, const double* q,
                                 const double* lo, const double* hi, int d) {
  // Axis distance to [lo, hi] as max(0, lo−q) + max(0, q−hi): at most one
  // side is positive for a well-formed rectangle, and the `t > 0` clamp
  // sends NaN coordinates to +0.
  double sum = 0.0;
  for (int i = 0; i < d; ++i) {
    const double lo_side = lo[i] - q[i];
    const double hi_side = q[i] - hi[i];
    const double diff =
        (lo_side > 0.0 ? lo_side : 0.0) + (hi_side > 0.0 ? hi_side : 0.0);
    sum += w != nullptr ? (w[i] * diff) * diff : diff * diff;
  }
  return sum;
}

}  // namespace

// ---------------------------------------------------------------------------
// Batch kernels, templated on the lane policy. Row r of a width-W group is
// lane r; tails run the row kernel, whose order the lanes mirror exactly.

template <class P>
struct KernelImpl {
  using V = typename P::V;
  using M = typename P::M;
  static constexpr int kWidth = P::kWidth;

  /// Per-thread transpose buffer: `len` elements of `kWidth` consecutive
  /// doubles, element i of lane r at [i * kWidth + r]. Grows once per
  /// thread and is reused across calls — no per-batch allocation in steady
  /// state.
  static double* TransposeScratch(std::size_t len) {
    static thread_local std::vector<double> buf;
    if (buf.size() < len * static_cast<std::size_t>(kWidth)) {
      buf.resize(len * static_cast<std::size_t>(kWidth));
    }
    return buf.data();
  }

  static void SquaredL2Batch(const double* q, const double* base,
                             std::size_t n, int d, double* out) {
    const std::size_t stride = static_cast<std::size_t>(d);
    std::size_t g = 0;
    if constexpr (kWidth > 1) {
      for (; g + kWidth <= n; g += kWidth) {
        const double* rows[kWidth];
        for (int r = 0; r < kWidth; ++r) rows[r] = base + (g + r) * stride;
        V acc = P::Zero();
        for (int i = 0; i < d; ++i) {
          const V diff = P::Sub(P::Broadcast(q[i]), P::Gather(rows, i));
          acc = P::Add(acc, P::Mul(diff, diff));
        }
        P::Store(out + g, acc);
      }
    }
    for (; g < n; ++g) out[g] = SquaredL2RowRef(q, base + g * stride, d);
  }

  static void WeightedSqBatch(const double* w, const double* q,
                              const double* base, std::size_t n, int d,
                              double* out) {
    const std::size_t stride = static_cast<std::size_t>(d);
    std::size_t g = 0;
    if constexpr (kWidth > 1) {
      for (; g + kWidth <= n; g += kWidth) {
        const double* rows[kWidth];
        for (int r = 0; r < kWidth; ++r) rows[r] = base + (g + r) * stride;
        V acc = P::Zero();
        for (int i = 0; i < d; ++i) {
          const V diff = P::Sub(P::Gather(rows, i), P::Broadcast(q[i]));
          acc = P::Add(acc, P::Mul(P::Mul(P::Broadcast(w[i]), diff), diff));
        }
        P::Store(out + g, acc);
      }
    }
    for (; g < n; ++g) out[g] = WeightedSqRowRef(w, q, base + g * stride, d);
  }

  /// xᵀAx with x pre-transposed at `xt` (element i of lane r at
  /// xt[i·kWidth + r]) — per lane the exact sequential order of
  /// QuadraticFormRowRef.
  static V QuadraticFormLanes(const double* a, const double* xt, int d) {
    V sum = P::Zero();
    const std::size_t stride = static_cast<std::size_t>(d);
    for (int r = 0; r < d; ++r) {
      const double* a_r = a + static_cast<std::size_t>(r) * stride;
      V dot = P::Zero();
      for (int c = 0; c < d; ++c) {
        dot = P::Add(dot, P::Mul(P::Broadcast(a_r[c]),
                                 P::Load(xt + c * kWidth)));
      }
      sum = P::Add(sum, P::Mul(P::Load(xt + r * kWidth), dot));
    }
    return sum;
  }

  static void MahalanobisBatch(const double* a, const double* aq, double q_aq,
                               const double* base, std::size_t n, int d,
                               double* out) {
    const std::size_t stride = static_cast<std::size_t>(d);
    std::size_t g = 0;
    if constexpr (kWidth > 1) {
      double* xt = TransposeScratch(static_cast<std::size_t>(d));
      for (; g + kWidth <= n; g += kWidth) {
        const double* rows[kWidth];
        for (int r = 0; r < kWidth; ++r) rows[r] = base + (g + r) * stride;
        for (int i = 0; i < d; ++i) P::Store(xt + i * kWidth, P::Gather(rows, i));
        const V x_ax = QuadraticFormLanes(a, xt, d);
        V x_aq = P::Zero();
        for (int i = 0; i < d; ++i) {
          x_aq = P::Add(x_aq, P::Mul(P::Load(xt + i * kWidth),
                                     P::Broadcast(aq[i])));
        }
        const V value = P::Add(
            P::Sub(x_ax, P::Mul(P::Broadcast(2.0), x_aq)), P::Broadcast(q_aq));
        P::Store(out + g, P::MaxZero(value));
      }
    }
    for (; g < n; ++g) {
      out[g] = MahalanobisRowRef(a, aq, q_aq, base + g * stride, d);
    }
  }

  /// One Eq. 5 component over transposed lanes; `dt` is a second d×kWidth
  /// staging area for full-matrix diffs.
  static V ComponentDistanceLanes(const QuadComponentView& c, const double* xt,
                                  int d, double* dt) {
    if (c.diagonal != nullptr) {
      V acc = P::Zero();
      for (int i = 0; i < d; ++i) {
        const V diff =
            P::Sub(P::Load(xt + i * kWidth), P::Broadcast(c.query[i]));
        acc = P::Add(acc,
                     P::Mul(P::Mul(P::Broadcast(c.diagonal[i]), diff), diff));
      }
      return acc;
    }
    for (int i = 0; i < d; ++i) {
      P::Store(dt + i * kWidth, P::Sub(P::Load(xt + i * kWidth),
                                       P::Broadcast(c.query[i])));
    }
    return QuadraticFormLanes(c.full, dt, d);
  }

  /// Eq. 5 across lanes. The scalar early-exit on d²ⱼ <= 0 becomes a
  /// per-lane mask: flagged lanes keep accumulating (their denominators may
  /// absorb ±inf from the division) but the final select pins them to +0,
  /// which is exactly the value the early exit returns. NaN d² leaves the
  /// mask unset and poisons the denominator → NaN result, as in the row
  /// kernel.
  static V HarmonicLanes(const HarmonicSpec& spec, const double* xt, int d,
                         double* dt) {
    const V zero = P::Zero();
    M is_zero = P::FalseMask();
    V denom = zero;
    for (std::size_t j = 0; j < spec.count; ++j) {
      const V d2 = ComponentDistanceLanes(spec.components[j], xt, d, dt);
      is_zero = P::OrMask(is_zero, P::CmpLE(d2, zero));
      denom = P::Add(denom, P::Div(P::Broadcast(spec.components[j].weight), d2));
    }
    const V inf = P::Broadcast(std::numeric_limits<double>::infinity());
    const V ratio = P::Div(P::Broadcast(spec.total_weight), denom);
    const V result = P::Select(P::CmpLE(denom, zero), inf, ratio);
    return P::Select(is_zero, zero, result);
  }

  static void HarmonicBatch(const HarmonicSpec& spec, const double* base,
                            std::size_t n, int d, double* scratch,
                            double* out) {
    const std::size_t stride = static_cast<std::size_t>(d);
    std::size_t g = 0;
    if constexpr (kWidth > 1) {
      double* xt = TransposeScratch(2 * static_cast<std::size_t>(d));
      double* dt = xt + static_cast<std::size_t>(d) * kWidth;
      for (; g + kWidth <= n; g += kWidth) {
        const double* rows[kWidth];
        for (int r = 0; r < kWidth; ++r) rows[r] = base + (g + r) * stride;
        for (int i = 0; i < d; ++i) P::Store(xt + i * kWidth, P::Gather(rows, i));
        P::Store(out + g, HarmonicLanes(spec, xt, d, dt));
      }
    }
    for (; g < n; ++g) {
      out[g] = HarmonicRowRef(spec, base + g * stride, d, scratch);
    }
  }
};

/// Builds a tier's dispatch table from its policy instantiation. Row
/// kernels are this TU's copy of the canonical reference on every tier;
/// only the batch kernels differ in how many rows they carry per step.
template <class P>
constexpr KernelTable MakeTable(Tier tier) {
  using K = KernelImpl<P>;
  return KernelTable{
      tier,
      &SquaredL2RowRef,
      &WeightedSqRowRef,
      &QuadraticFormRowRef,
      &MahalanobisRowRef,
      &HarmonicRowRef,
      &WeightedRectRowRef,
      &K::SquaredL2Batch,
      &K::WeightedSqBatch,
      &K::MahalanobisBatch,
      &K::HarmonicBatch,
  };
}

}  // namespace qcluster::linalg::simd::internal

#endif  // QCLUSTER_LINALG_SIMD_KERNELS_H_
