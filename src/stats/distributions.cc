#include "stats/distributions.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/check.h"
#include "stats/special_functions.h"

namespace qcluster::stats {
namespace {

/// Monotone bisection inversion of a CDF on [lo, hi].
template <typename Cdf>
double InvertCdf(const Cdf& cdf, double p, double lo, double hi) {
  // Expand the bracket until it contains the quantile.
  while (cdf(hi) < p && hi < 1e12) {
    lo = hi;
    hi *= 2.0;
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + hi)) break;
  }
  return 0.5 * (lo + hi);
}

/// splitmix64's finalizer: every key bit reaches every slot bit. The
/// degrees of freedom are integer-valued doubles whose low mantissa bits
/// are all zero, so a plain multiplicative hash would crowd them into a few
/// slots.
std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A fixed-size direct-mapped memo of a pure function of `N` doubles,
/// keyed by the exact bits of the arguments. A hit returns the bits the
/// first computation produced, so the memo changes no result. The first
/// argument is α ∈ (0, 1), never all-zero bits, so a zeroed slot is empty.
template <std::size_t N>
class QuantileMemo {
 public:
  template <typename Compute>
  double Get(const std::array<double, N>& args, const Compute& compute) {
    std::array<std::uint64_t, N> key;
    std::uint64_t hash = 0;
    for (std::size_t i = 0; i < N; ++i) {
      key[i] = std::bit_cast<std::uint64_t>(args[i]);
      hash = Mix64(hash ^ key[i]);
    }
    Slot& slot = slots_[hash % kSlots];
    if (slot.key != key) slot = {key, compute()};
    return slot.value;
  }

 private:
  static constexpr std::size_t kSlots = 1024;
  struct Slot {
    std::array<std::uint64_t, N> key{};
    double value = 0.0;
  };
  std::array<Slot, kSlots> slots_{};
};

/// Memoizes `compute` in this thread's table for `N`-argument quantiles.
/// The table is allocated on a thread's first call, so threads that never
/// invert a CDF pay nothing, and needs no lock.
template <std::size_t N, typename Compute>
double Memoized(const std::array<double, N>& args, const Compute& compute) {
  thread_local std::unique_ptr<QuantileMemo<N>> memo;
  if (!memo) memo = std::make_unique<QuantileMemo<N>>();
  return memo->Get(args, compute);
}

}  // namespace

double ChiSquaredCdf(double x, double dof) {
  QCLUSTER_CHECK(dof > 0.0);
  if (x <= 0.0) return 0.0;
  return RegularizedGammaP(dof / 2.0, x / 2.0);
}

double ChiSquaredQuantile(double p, double dof) {
  QCLUSTER_CHECK(0.0 < p && p < 1.0);
  QCLUSTER_CHECK(dof > 0.0);
  // Wilson-Hilferty starting guess, then bisection for robustness.
  const double z = StandardNormalQuantile(p);
  const double h = 2.0 / (9.0 * dof);
  double guess = dof * std::pow(1.0 - h + z * std::sqrt(h), 3.0);
  if (guess <= 0.0) guess = 0.5;
  return InvertCdf([dof](double x) { return ChiSquaredCdf(x, dof); }, p, 0.0,
                   2.0 * guess + 10.0);
}

double ChiSquaredUpperQuantile(double alpha, double dof) {
  QCLUSTER_CHECK(0.0 < alpha && alpha < 1.0);
  return Memoized<2>({alpha, dof},
                     [&] { return ChiSquaredQuantile(1.0 - alpha, dof); });
}

double FCdf(double x, double d1, double d2) {
  QCLUSTER_CHECK(d1 > 0.0 && d2 > 0.0);
  if (x <= 0.0) return 0.0;
  const double t = d1 * x / (d1 * x + d2);
  return RegularizedIncompleteBeta(d1 / 2.0, d2 / 2.0, t);
}

double FQuantile(double p, double d1, double d2) {
  QCLUSTER_CHECK(0.0 < p && p < 1.0);
  return InvertCdf([d1, d2](double x) { return FCdf(x, d1, d2); }, p, 0.0,
                   16.0);
}

double FUpperQuantile(double alpha, double d1, double d2) {
  QCLUSTER_CHECK(0.0 < alpha && alpha < 1.0);
  return Memoized<3>({alpha, d1, d2},
                     [&] { return FQuantile(1.0 - alpha, d1, d2); });
}

double StudentTCdf(double x, double dof) {
  QCLUSTER_CHECK(dof > 0.0);
  const double t = dof / (dof + x * x);
  const double half = 0.5 * RegularizedIncompleteBeta(dof / 2.0, 0.5, t);
  return x >= 0.0 ? 1.0 - half : half;
}

}  // namespace qcluster::stats
