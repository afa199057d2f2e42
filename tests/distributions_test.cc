#include "stats/distributions.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace qcluster::stats {
namespace {

TEST(ChiSquaredTest, CdfKnownValues) {
  // CDF of chi-square with 2 dof is 1 - e^{-x/2}.
  EXPECT_NEAR(ChiSquaredCdf(2.0, 2.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(ChiSquaredCdf(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquaredCdf(-1.0, 5.0), 0.0);
}

TEST(ChiSquaredTest, UpperQuantileTextbookValues) {
  // Classic table values at alpha = 0.05.
  EXPECT_NEAR(ChiSquaredUpperQuantile(0.05, 1), 3.841, 1e-3);
  EXPECT_NEAR(ChiSquaredUpperQuantile(0.05, 2), 5.991, 1e-3);
  EXPECT_NEAR(ChiSquaredUpperQuantile(0.05, 3), 7.815, 1e-3);
  EXPECT_NEAR(ChiSquaredUpperQuantile(0.05, 10), 18.307, 1e-3);
  EXPECT_NEAR(ChiSquaredUpperQuantile(0.01, 3), 11.345, 1e-3);
}

TEST(ChiSquaredTest, QuantileInvertsCdf) {
  for (double dof : {1.0, 3.0, 12.0, 48.0}) {
    for (double p : {0.01, 0.25, 0.5, 0.9, 0.99}) {
      const double x = ChiSquaredQuantile(p, dof);
      EXPECT_NEAR(ChiSquaredCdf(x, dof), p, 1e-9)
          << "dof=" << dof << " p=" << p;
    }
  }
}

TEST(ChiSquaredTest, SmallerAlphaLargerRadius) {
  // Lemma 1: as alpha decreases, the effective radius increases.
  EXPECT_GT(ChiSquaredUpperQuantile(0.01, 3), ChiSquaredUpperQuantile(0.05, 3));
  EXPECT_GT(ChiSquaredUpperQuantile(0.05, 3), ChiSquaredUpperQuantile(0.20, 3));
}

TEST(FDistributionTest, CdfBasics) {
  EXPECT_DOUBLE_EQ(FCdf(0.0, 3, 10), 0.0);
  // Median of F(d, d) is 1 for equal dof.
  EXPECT_NEAR(FCdf(1.0, 7, 7), 0.5, 1e-10);
}

TEST(FDistributionTest, UpperQuantileTextbookValues) {
  // F table values at alpha = 0.05.
  EXPECT_NEAR(FUpperQuantile(0.05, 1, 10), 4.965, 1e-2);
  EXPECT_NEAR(FUpperQuantile(0.05, 5, 20), 2.711, 1e-2);
  EXPECT_NEAR(FUpperQuantile(0.05, 10, 30), 2.165, 1e-2);
}

TEST(FDistributionTest, PaperQuantileFValues) {
  // Table 2/3 of the paper reports quantile-F critical distances given by
  // the 95th percentile F_{p, n-p}(0.05) with n = 60 objects (two clusters
  // of size 30): p=12 -> 1.96, p=9 -> 2.07 (approx), p=6 -> 2.28 (approx),
  // p=3 -> 2.77 (approx).
  EXPECT_NEAR(FUpperQuantile(0.05, 12, 48), 1.96, 0.02);
  EXPECT_NEAR(FUpperQuantile(0.05, 9, 51), 2.07, 0.02);
  EXPECT_NEAR(FUpperQuantile(0.05, 6, 54), 2.27, 0.02);
  EXPECT_NEAR(FUpperQuantile(0.05, 3, 57), 2.77, 0.02);
}

TEST(FDistributionTest, QuantileInvertsCdf) {
  for (double p : {0.05, 0.5, 0.95, 0.999}) {
    const double x = FQuantile(p, 4, 17);
    EXPECT_NEAR(FCdf(x, 4, 17), p, 1e-9);
  }
}

TEST(FDistributionTest, LargeQuantilesBracketed) {
  // Quantile far above the initial bracket must still be found.
  const double x = FQuantile(0.9999, 2, 2);
  EXPECT_GT(x, 100.0);
  EXPECT_NEAR(FCdf(x, 2, 2), 0.9999, 1e-8);
}

TEST(StudentTTest, CdfKnownValues) {
  EXPECT_NEAR(StudentTCdf(0.0, 5), 0.5, 1e-12);
  // t_{0.975, 10} = 2.228.
  EXPECT_NEAR(StudentTCdf(2.228, 10), 0.975, 1e-3);
  EXPECT_NEAR(StudentTCdf(-2.228, 10), 0.025, 1e-3);
}

TEST(StudentTTest, SquaredTIsF) {
  // If T ~ t(v) then T² ~ F(1, v): P(|T| <= t) == P(F <= t²).
  const double t = 1.7;
  const double v = 9.0;
  const double p_t = StudentTCdf(t, v) - StudentTCdf(-t, v);
  EXPECT_NEAR(p_t, FCdf(t * t, 1, v), 1e-10);
}

/// One upper-quantile question and the bits its direct inversion gives.
struct QuantileKey {
  bool f = false;  ///< F_{d1,d2}(alpha) when true, else χ²_{d1}(alpha).
  double alpha = 0.0;
  double d1 = 0.0;
  double d2 = 0.0;
  double direct = 0.0;
};

double Ask(const QuantileKey& k) {
  return k.f ? FUpperQuantile(k.alpha, k.d1, k.d2)
             : ChiSquaredUpperQuantile(k.alpha, k.d1);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Asks every key twice in a shuffled order and counts answers whose bits
/// differ from the direct inversion.
int SweepMismatches(const std::vector<QuantileKey>& keys, unsigned seed) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    order.push_back(i);
    order.push_back(i);
  }
  std::shuffle(order.begin(), order.end(), std::mt19937(seed));
  int mismatches = 0;
  for (const std::size_t i : order) {
    if (!SameBits(Ask(keys[i]), keys[i].direct)) ++mismatches;
  }
  return mismatches;
}

TEST(FDistributionTest, UpperQuantileMemoMatchesDirectInversion) {
  // α down the merge pass's relaxation ladder, integer and fractional
  // degrees of freedom (m_i + m_j is a sum of scores): more distinct keys
  // per function than the 1024-slot table holds, so slots get evicted.
  const std::array<double, 6> alphas = {0.05, 0.005, 5e-4, 1e-6, 1e-9, 0.2};
  std::vector<QuantileKey> keys;
  for (const double alpha : alphas) {
    for (int d1 = 1; d1 <= 16; ++d1) {
      for (int t = 1; t <= 12; ++t) {
        keys.push_back({true, alpha, static_cast<double>(d1), 0.75 * t, 0.0});
      }
    }
    for (int dof = 1; dof <= 200; ++dof) {
      keys.push_back({false, alpha, 0.5 * dof, 0.0, 0.0});
    }
  }
  int f_keys = 0;
  for (QuantileKey& k : keys) {
    k.direct = k.f ? FQuantile(1.0 - k.alpha, k.d1, k.d2)
                   : ChiSquaredQuantile(1.0 - k.alpha, k.d1);
    f_keys += k.f ? 1 : 0;
  }
  ASSERT_GT(f_keys, 1024);
  ASSERT_GT(static_cast<int>(keys.size()) - f_keys, 1024);

  EXPECT_EQ(SweepMismatches(keys, 1), 0);

  // Each thread has its own table; a shared one would race (TSan) or
  // answer from another thread's slot.
  std::array<int, 4> mismatches{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&keys, &mismatches, t] {
      mismatches[t] = SweepMismatches(keys, 2 + static_cast<unsigned>(t));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);
}

}  // namespace
}  // namespace qcluster::stats
