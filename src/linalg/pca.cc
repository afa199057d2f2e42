#include "linalg/pca.h"

#include <algorithm>

#include "common/check.h"

namespace qcluster::linalg {

Result<Pca> Pca::Fit(const std::vector<Vector>& rows) {
  QCLUSTER_CHECK_MSG(!rows.empty(), "PCA needs at least one sample");
  const std::size_t p = rows.front().size();
  Vector mean(p, 0.0);
  for (const Vector& r : rows) {
    QCLUSTER_CHECK(r.size() == p);
    for (std::size_t j = 0; j < p; ++j) mean[j] += r[j];
  }
  const double inv_n = 1.0 / static_cast<double>(rows.size());
  for (double& m : mean) m *= inv_n;

  // Sample covariance with 1/n normalization; the normalization constant
  // does not affect directions or variance ratios.
  Matrix cov(static_cast<int>(p), static_cast<int>(p), 0.0);
  for (const Vector& r : rows) {
    for (std::size_t i = 0; i < p; ++i) {
      const double di = r[i] - mean[i];
      for (std::size_t j = i; j < p; ++j) {
        cov(static_cast<int>(i), static_cast<int>(j)) += di * (r[j] - mean[j]);
      }
    }
  }
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i; j < p; ++j) {
      const double v = cov(static_cast<int>(i), static_cast<int>(j)) * inv_n;
      cov(static_cast<int>(i), static_cast<int>(j)) = v;
      cov(static_cast<int>(j), static_cast<int>(i)) = v;
    }
  }

  Result<SymmetricEigen> eigen = EigenSymmetric(cov);
  if (!eigen.ok()) return eigen.status();
  return Pca(std::move(mean), std::move(eigen).value());
}

double Pca::VarianceRatio(int k) const {
  QCLUSTER_CHECK(0 <= k && k <= input_dim());
  double total = 0.0;
  for (double v : eigen_.values) total += std::max(v, 0.0);
  if (total <= 0.0) return 1.0;
  double acc = 0.0;
  for (int i = 0; i < k; ++i) {
    acc += std::max(eigen_.values[static_cast<std::size_t>(i)], 0.0);
  }
  return acc / total;
}

Vector Pca::Transform(const Vector& x, int k) const {
  QCLUSTER_CHECK(0 < k);
  Vector z(static_cast<std::size_t>(k), 0.0);
  TransformInto(x, k, z.data());
  return z;
}

void Pca::TransformInto(const Vector& x, int k, double* out) const {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == input_dim());
  QCLUSTER_CHECK(0 < k && k <= input_dim());
  for (int c = 0; c < k; ++c) {
    double sum = 0.0;
    for (int r = 0; r < input_dim(); ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      sum += eigen_.vectors(r, c) * (x[i] - mean_[i]);
    }
    out[c] = sum;
  }
}

std::vector<Vector> Pca::TransformAll(const std::vector<Vector>& rows,
                                      int k) const {
  std::vector<Vector> out;
  out.reserve(rows.size());
  for (const Vector& r : rows) out.push_back(Transform(r, k));
  return out;
}

}  // namespace qcluster::linalg
