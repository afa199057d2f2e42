// Width-2 dispatch tier: two rows per batch step on one 128-bit register —
// SSE2 on x86-64 (baseline, no extra compile flags) and NEON on AArch64.
// Lane r carries row r of the pair; each lane performs the canonical row
// kernel's operation sequence, so results match the scalar tier bit for
// bit.

#include "linalg/simd_kernels.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

namespace qcluster::linalg::simd::internal {

#if defined(__SSE2__)

namespace {

struct Sse2Policy {
  static constexpr int kWidth = 2;
  using V = __m128d;
  using M = __m128d;  // all-ones / all-zeros per lane

  static V Zero() { return _mm_setzero_pd(); }

  static V Broadcast(double x) { return _mm_set1_pd(x); }

  static V Gather(const double* const* rows, int i) {
    return _mm_set_pd(rows[1][i], rows[0][i]);
  }

  static V Load(const double* p) { return _mm_loadu_pd(p); }

  static V Add(V a, V b) { return _mm_add_pd(a, b); }

  static V Sub(V a, V b) { return _mm_sub_pd(a, b); }

  static V Mul(V a, V b) { return _mm_mul_pd(a, b); }

  static V Div(V a, V b) { return _mm_div_pd(a, b); }

  static V MaxZero(V v) {
    // v <= 0 ? +0 : v per lane: the compare mask clears the negative and
    // ±0 lanes to +0 and keeps the rest, NaN included (an ordered compare
    // fails on NaN), exactly like the scalar ternary.
    return _mm_andnot_pd(_mm_cmple_pd(v, _mm_setzero_pd()), v);
  }

  static M FalseMask() { return _mm_setzero_pd(); }

  static M CmpLE(V a, V b) { return _mm_cmple_pd(a, b); }  // NaN -> false

  static M OrMask(M a, M b) { return _mm_or_pd(a, b); }

  static V Select(M m, V yes, V no) {
    return _mm_or_pd(_mm_and_pd(m, yes), _mm_andnot_pd(m, no));
  }

  static void Store(double* out, V v) { _mm_storeu_pd(out, v); }
};

constexpr KernelTable kTable = MakeTable<Sse2Policy>(Tier::kWidth2);

}  // namespace

const KernelTable* Width2Table() { return &kTable; }

#elif defined(__ARM_NEON) || defined(__ARM_NEON__)

namespace {

struct NeonPolicy {
  static constexpr int kWidth = 2;
  using V = float64x2_t;
  using M = uint64x2_t;

  static V Zero() { return vdupq_n_f64(0.0); }

  static V Broadcast(double x) { return vdupq_n_f64(x); }

  static V Gather(const double* const* rows, int i) {
    return vsetq_lane_f64(rows[1][i], vdupq_n_f64(rows[0][i]), 1);
  }

  static V Load(const double* p) { return vld1q_f64(p); }

  static V Add(V a, V b) { return vaddq_f64(a, b); }

  static V Sub(V a, V b) { return vsubq_f64(a, b); }

  static V Mul(V a, V b) { return vmulq_f64(a, b); }

  static V Div(V a, V b) { return vdivq_f64(a, b); }

  static V MaxZero(V v) {
    // v <= 0 ? +0 : v per lane, as a select rather than vmaxq: FMAX may
    // replace a NaN with the default NaN, while the canonical semantics
    // pass the lane through bit for bit (NaN fails the compare).
    const float64x2_t zero = vdupq_n_f64(0.0);
    return vbslq_f64(vcleq_f64(v, zero), zero, v);
  }

  static M FalseMask() { return vdupq_n_u64(0); }

  static M CmpLE(V a, V b) { return vcleq_f64(a, b); }  // NaN -> false

  static M OrMask(M a, M b) { return vorrq_u64(a, b); }

  static V Select(M m, V yes, V no) { return vbslq_f64(m, yes, no); }

  static void Store(double* out, V v) { vst1q_f64(out, v); }
};

constexpr KernelTable kTable = MakeTable<NeonPolicy>(Tier::kWidth2);

}  // namespace

const KernelTable* Width2Table() { return &kTable; }

#else

const KernelTable* Width2Table() { return nullptr; }

#endif

}  // namespace qcluster::linalg::simd::internal
