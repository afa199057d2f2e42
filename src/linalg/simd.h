#ifndef QCLUSTER_LINALG_SIMD_H_
#define QCLUSTER_LINALG_SIMD_H_

#include <cstddef>

namespace qcluster::linalg::simd {

/// Maximum number of rows a batch kernel scores per step (the widest
/// tier's lane count). The vector axis is the *batch* dimension: lane r of
/// a step carries row r, and the element loop walks the dimension
/// sequentially, so each lane performs exactly the scalar row kernel's
/// operation sequence in the same order. A narrower tier carries fewer
/// rows per step but the per-row arithmetic is unchanged, which is why
/// every tier — and the per-point row kernels — produce byte-identical
/// results for the same inputs at any dimension and any thread count.
/// Leftover rows (n % width) run the row kernel itself. New kernels must
/// follow the same rule: per-row arithmetic order is the scalar order,
/// independent of tier (docs/PERFORMANCE.md).
inline constexpr int kLanes = 4;

/// Dispatch tiers in increasing preference order. kWidth2 is SSE2 on x86
/// and NEON on AArch64 (both are baseline for their architecture); kWidth4
/// is AVX2, compiled into its own translation unit and selected only when
/// the running CPU reports support, so one binary serves any host.
enum class Tier : int {
  kScalar = 0,
  kWidth2 = 1,
  kWidth4 = 2,
};

/// One quadratic component of a harmonic (Eq. 5) aggregate, viewed as raw
/// pointers so kernels stay allocation-free. Exactly one of `diagonal`
/// (diag(Aᵢ), length dim) and `full` (row-major dim×dim Aᵢ) is non-null.
struct QuadComponentView {
  const double* query = nullptr;
  const double* diagonal = nullptr;
  const double* full = nullptr;
  double weight = 1.0;
};

/// The Eq. 5 aggregate Σmᵢ / Σ(mᵢ/d²ᵢ) over `count` components. All
/// pointers are borrowed; the caller keeps them alive across the call.
struct HarmonicSpec {
  const QuadComponentView* components = nullptr;
  std::size_t count = 0;
  double total_weight = 0.0;
};

/// The per-tier kernel set. Row kernels score one point in canonical
/// sequential order, from the same source on every tier (each tier compiles
/// its own copy, so no tier runs another's instruction set); batch kernels
/// score `n` contiguous row-major rows (row stride == the dimension) with
/// the tier's row width, each lane mirroring the row kernel's exact
/// operation sequence — so the same inputs produce byte-identical outputs
/// on every tier and through either entry point.
struct KernelTable {
  Tier tier;

  /// Σ (q[i] − x[i])².
  double (*squared_l2_row)(const double* q, const double* x, int d);
  /// Σ (w[i]·(x[i] − q[i]))·(x[i] − q[i]) — the weighted/diagonal form.
  double (*weighted_sq_row)(const double* w, const double* q, const double* x,
                            int d);
  /// vᵀ A v for a row-major d×d matrix: Σ_r v[r]·dot(A_r, v), outer sum and
  /// inner dots both sequential.
  double (*quadratic_form_row)(const double* a, const double* v, int d);
  /// xᵀAx − 2·xᵀ(Aq) + qᵀAq with negatives and ±0 clamped to +0 and NaN
  /// passed through (the cached expanded Mahalanobis form): xᵀAx as in
  /// quadratic_form_row, xᵀ(Aq) one sequential dot.
  double (*mahalanobis_row)(const double* a, const double* aq, double q_aq,
                            const double* x, int d);
  /// Eq. 5 over full-dimension components. `scratch` must hold d doubles
  /// when any component carries a `full` matrix (diff staging); may be null
  /// otherwise.
  double (*harmonic_row)(const HarmonicSpec& spec, const double* x, int d,
                         double* scratch);
  /// Σ wᵢ·clampᵢ² where clampᵢ is q's axis distance to [lo, hi] (0 inside);
  /// `w == nullptr` means unit weights. Requires lo[i] <= hi[i] (or the
  /// ±inf empty rectangle). The per-element clamp is `t > 0 ? t : +0`, so
  /// NaN coordinates contribute 0 exactly like the scalar branch form.
  double (*weighted_rect_row)(const double* w, const double* q,
                              const double* lo, const double* hi, int d);

  void (*squared_l2_batch)(const double* q, const double* base, std::size_t n,
                           int d, double* out);
  void (*weighted_sq_batch)(const double* w, const double* q,
                            const double* base, std::size_t n, int d,
                            double* out);
  void (*mahalanobis_batch)(const double* a, const double* aq, double q_aq,
                            const double* base, std::size_t n, int d,
                            double* out);
  void (*harmonic_batch)(const HarmonicSpec& spec, const double* base,
                         std::size_t n, int d, double* scratch, double* out);
};

/// The active kernel table: resolved once (honoring QCLUSTER_SIMD, falling
/// back to the best tier the CPU supports), then one relaxed atomic load
/// per call. Safe to call from any thread.
const KernelTable& Kernels();

/// Tier of the table Kernels() currently returns.
Tier ActiveTier();

/// True when `tier` is both compiled in and supported by the running CPU.
bool TierAvailable(Tier tier);

/// Forces the active tier (tests, benches). Returns false — leaving the
/// active tier unchanged — when the tier is unavailable on this host. Also
/// refreshes the `simd.dispatch_tier` gauge.
bool SetTier(Tier tier);

/// Re-applies the QCLUSTER_SIMD preference (auto when unset): the inverse
/// of SetTier for tests that must restore the dispatch default.
void ResetTierFromEnv();

/// Stable lowercase tier name for logs/metrics: "scalar", "sse2"/"neon"
/// (architecture-dependent), "avx2".
const char* TierName(Tier tier);

namespace internal {

/// Parses QCLUSTER_SIMD (scalar|sse2|neon|avx2|auto) once; idempotent.
/// Referenced from the inline variable below so the initializer survives
/// static-library linking in every binary that includes this header.
bool InitSimdFromEnv();
inline const bool kSimdEnvApplied = InitSimdFromEnv();

/// Per-tier tables, defined in their own translation units (only
/// simd_avx2.cc is compiled with AVX2 codegen). Null when the tier is not
/// compiled for this architecture.
const KernelTable* ScalarTable();
const KernelTable* Width2Table();
const KernelTable* Width4Table();

}  // namespace internal

}  // namespace qcluster::linalg::simd

#endif  // QCLUSTER_LINALG_SIMD_H_
