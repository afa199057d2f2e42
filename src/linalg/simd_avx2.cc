// Width-4 dispatch tier: four rows per batch step on one 256-bit AVX2
// register, lane r carrying row r. This translation unit is the only one
// compiled with -mavx2 (and without -mfma — the kernels' multiply/add
// pairs must stay unfused to match the other tiers bit for bit); the
// dispatcher selects it only after the running CPU reports AVX2, so the
// rest of the binary stays runnable on any x86-64 host.

#include "linalg/simd_kernels.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace qcluster::linalg::simd::internal {

#if defined(__AVX2__)

namespace {

struct Avx2Policy {
  static constexpr int kWidth = 4;
  using V = __m256d;
  using M = __m256d;  // all-ones / all-zeros per lane

  static V Zero() { return _mm256_setzero_pd(); }

  static V Broadcast(double x) { return _mm256_set1_pd(x); }

  static V Gather(const double* const* rows, int i) {
    return _mm256_set_pd(rows[3][i], rows[2][i], rows[1][i], rows[0][i]);
  }

  static V Load(const double* p) { return _mm256_loadu_pd(p); }

  static V Add(V a, V b) { return _mm256_add_pd(a, b); }

  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }

  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }

  static V Div(V a, V b) { return _mm256_div_pd(a, b); }

  static V MaxZero(V v) {
    // v <= 0 ? +0 : v per lane (ordered quiet compare: NaN fails and passes
    // through, matching the scalar ternary).
    return _mm256_andnot_pd(
        _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_LE_OQ), v);
  }

  static M FalseMask() { return _mm256_setzero_pd(); }

  static M CmpLE(V a, V b) {
    return _mm256_cmp_pd(a, b, _CMP_LE_OQ);  // NaN -> false
  }

  static M OrMask(M a, M b) { return _mm256_or_pd(a, b); }

  static V Select(M m, V yes, V no) { return _mm256_blendv_pd(no, yes, m); }

  static void Store(double* out, V v) { _mm256_storeu_pd(out, v); }
};

constexpr KernelTable kTable = MakeTable<Avx2Policy>(Tier::kWidth4);

}  // namespace

const KernelTable* Width4Table() { return &kTable; }

#else

// Compiled without AVX2 support (non-x86 target or a compiler without
// -mavx2): the tier simply does not exist in this binary and the dispatcher
// falls back to width-2 or scalar.
const KernelTable* Width4Table() { return nullptr; }

#endif

}  // namespace qcluster::linalg::simd::internal
