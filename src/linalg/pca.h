#ifndef QCLUSTER_LINALG_PCA_H_
#define QCLUSTER_LINALG_PCA_H_

#include "common/status.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"

namespace qcluster::linalg {

/// Principal component analysis as used in Sec. 4.4 of the paper: fitted on a
/// sample X, the transform is z = G_k^T (x - mean) where the columns of G are
/// eigenvectors of the sample covariance sorted by descending eigenvalue.
class Pca {
 public:
  /// Fits a PCA model on `rows` sample vectors (each of equal dimension).
  /// Requires at least one sample. Fails only if the eigensolver diverges.
  [[nodiscard]] static Result<Pca> Fit(const std::vector<Vector>& rows);

  /// Input dimensionality p.
  int input_dim() const { return static_cast<int>(mean_.size()); }

  /// The sample mean used for centering.
  const Vector& mean() const { return mean_; }

  /// Eigenvalues of the sample covariance, descending. These are the
  /// variances λ_i of the principal components.
  const Vector& eigenvalues() const { return eigen_.values; }

  /// Eigenvector matrix G; column i is the i-th principal direction.
  const Matrix& components() const { return eigen_.vectors; }

  /// Fraction of total variance covered by the first k components.
  double VarianceRatio(int k) const;

  /// Projects `x` onto the first `k` principal components.
  Vector Transform(const Vector& x, int k) const;

  /// Transform, writing the k coordinates to out[0..k) (e.g. a row of a
  /// FlatBlock).
  void TransformInto(const Vector& x, int k, double* out) const;

  /// Projects every row of `rows` onto the first `k` components.
  std::vector<Vector> TransformAll(const std::vector<Vector>& rows,
                                   int k) const;

 private:
  Pca(Vector mean, SymmetricEigen eigen)
      : mean_(std::move(mean)), eigen_(std::move(eigen)) {}

  Vector mean_;
  SymmetricEigen eigen_;
};

}  // namespace qcluster::linalg

#endif  // QCLUSTER_LINALG_PCA_H_
