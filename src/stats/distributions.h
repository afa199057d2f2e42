#ifndef QCLUSTER_STATS_DISTRIBUTIONS_H_
#define QCLUSTER_STATS_DISTRIBUTIONS_H_

namespace qcluster::stats {

/// Chi-square CDF with `dof` degrees of freedom, P(X <= x).
double ChiSquaredCdf(double x, double dof);

/// Chi-square quantile: smallest x with CDF(x) >= p, for p in (0, 1).
///
/// The paper's effective radius (Lemma 1) is χ²_p(α) in the *upper-tail*
/// convention: the radius containing 100(1-α)% of the mass. Use
/// `ChiSquaredUpperQuantile(alpha, dof)` for that reading.
double ChiSquaredQuantile(double p, double dof);

/// Upper-tail chi-square quantile: x with P(X > x) = alpha. This is the
/// effective radius of Lemma 1 for significance level alpha. Memoized in a
/// fixed per-thread table keyed by the exact argument bits; a hit returns
/// the bits of `ChiSquaredQuantile(1 - alpha, dof)`.
double ChiSquaredUpperQuantile(double alpha, double dof);

/// F-distribution CDF with (d1, d2) degrees of freedom.
double FCdf(double x, double d1, double d2);

/// F quantile: x with CDF(x) = p, for p in (0, 1).
double FQuantile(double p, double d1, double d2);

/// Upper-tail F quantile F_{d1,d2}(alpha): x with P(X > x) = alpha. This is
/// the percentile used in the paper's merge threshold c² (Eq. 16). Memoized
/// like `ChiSquaredUpperQuantile`; a hit returns the bits of
/// `FQuantile(1 - alpha, d1, d2)`.
double FUpperQuantile(double alpha, double d1, double d2);

/// Student-t CDF with `dof` degrees of freedom.
double StudentTCdf(double x, double dof);

}  // namespace qcluster::stats

#endif  // QCLUSTER_STATS_DISTRIBUTIONS_H_
