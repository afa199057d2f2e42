#include "index/distance.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "linalg/eigen_sym.h"
#include "linalg/simd.h"

namespace qcluster::index {

using linalg::FlatView;
using linalg::Matrix;
using linalg::Vector;

void Rect::Expand(const double* x) {
  for (std::size_t i = 0; i < lo.size(); ++i) {
    lo[i] = std::min(lo[i], x[i]);
    hi[i] = std::max(hi[i], x[i]);
  }
}

Rect Rect::Empty(int dim) {
  Rect r;
  r.lo.assign(static_cast<std::size_t>(dim),
              std::numeric_limits<double>::infinity());
  r.hi.assign(static_cast<std::size_t>(dim),
              -std::numeric_limits<double>::infinity());
  return r;
}

double Rect::SquaredEuclideanDistance(const Vector& x) const {
  QCLUSTER_CHECK(x.size() == lo.size());
  return linalg::simd::Kernels().weighted_rect_row(
      nullptr, x.data(), lo.data(), hi.data(), static_cast<int>(x.size()));
}

double DistanceFunction::Distance(const Vector& x) const {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == dim());
  return DistanceRow(x.data());
}

void DistanceFunction::DistanceBatch(const FlatView& view, double* out) const {
  QCLUSTER_CHECK(view.dim == dim());
  for (std::size_t i = 0; i < view.n; ++i) out[i] = DistanceRow(view.row(i));
}

double DistanceFunction::MinDistance(const Rect& rect) const {
  (void)rect;
  return 0.0;
}

bool DistanceFunction::Decompose(QuadraticDecomposition* out) const {
  (void)out;
  return false;
}

EuclideanDistance::EuclideanDistance(Vector query) : query_(std::move(query)) {
  QCLUSTER_CHECK(!query_.empty());
}

double EuclideanDistance::DistanceRow(const double* x) const {
  return linalg::simd::Kernels().squared_l2_row(query_.data(), x, dim());
}

void EuclideanDistance::DistanceBatch(const FlatView& view,
                                      double* out) const {
  QCLUSTER_CHECK(view.dim == dim());
  linalg::simd::Kernels().squared_l2_batch(query_.data(), view.data, view.n,
                                           view.dim, out);
}

double EuclideanDistance::MinDistance(const Rect& rect) const {
  return rect.SquaredEuclideanDistance(query_);
}

bool EuclideanDistance::Decompose(QuadraticDecomposition* out) const {
  out->components.clear();
  out->harmonic = false;
  out->total_weight = 0.0;
  QuadraticComponent& c = out->components.emplace_back();
  c.query = query_;
  c.diagonal.assign(query_.size(), 1.0);
  return true;
}

WeightedEuclideanDistance::WeightedEuclideanDistance(Vector query,
                                                     Vector weights)
    : query_(std::move(query)), weights_(std::move(weights)) {
  QCLUSTER_CHECK(query_.size() == weights_.size());
  for (double w : weights_) QCLUSTER_CHECK(w >= 0.0);
}

double WeightedEuclideanDistance::DistanceRow(const double* x) const {
  return linalg::simd::Kernels().weighted_sq_row(weights_.data(), query_.data(),
                                                 x, dim());
}

void WeightedEuclideanDistance::DistanceBatch(const FlatView& view,
                                              double* out) const {
  QCLUSTER_CHECK(view.dim == dim());
  linalg::simd::Kernels().weighted_sq_batch(weights_.data(), query_.data(),
                                            view.data, view.n, view.dim, out);
}

double WeightedEuclideanDistance::MinDistance(const Rect& rect) const {
  return linalg::simd::Kernels().weighted_rect_row(
      weights_.data(), query_.data(), rect.lo.data(), rect.hi.data(), dim());
}

bool WeightedEuclideanDistance::Decompose(QuadraticDecomposition* out) const {
  out->components.clear();
  out->harmonic = false;
  out->total_weight = 0.0;
  QuadraticComponent& c = out->components.emplace_back();
  c.query = query_;
  c.diagonal = weights_;
  return true;
}

MahalanobisDistance::MahalanobisDistance(Vector query,
                                         Matrix inverse_covariance)
    : query_(std::move(query)),
      inverse_covariance_(std::move(inverse_covariance)),
      diagonal_(false),
      q_aq_(0.0),
      min_eigenvalue_(0.0) {
  QCLUSTER_CHECK(static_cast<int>(query_.size()) == inverse_covariance_.rows());
  QCLUSTER_CHECK(inverse_covariance_.rows() == inverse_covariance_.cols());
  diagonal_ = inverse_covariance_.IsDiagonal();
  a_q_ = inverse_covariance_.MatVec(query_);
  q_aq_ = linalg::Dot(query_, a_q_);
  if (diagonal_) {
    // The scheme the paper adopts: exact per-dimension rectangle bounds, no
    // O(d³) eigendecomposition.
    diagonal_weights_ = inverse_covariance_.Diag();
    return;
  }
  min_eigenvalue_ = linalg::MinEigenvalueLowerBound(inverse_covariance_);
}

double MahalanobisDistance::DistanceRow(const double* x) const {
  const auto& kernels = linalg::simd::Kernels();
  if (diagonal_) {
    return kernels.weighted_sq_row(diagonal_weights_.data(), query_.data(), x,
                                   dim());
  }
  return kernels.mahalanobis_row(inverse_covariance_.data(), a_q_.data(), q_aq_,
                                 x, dim());
}

void MahalanobisDistance::DistanceBatch(const FlatView& view,
                                        double* out) const {
  QCLUSTER_CHECK(view.dim == dim());
  const auto& kernels = linalg::simd::Kernels();
  if (diagonal_) {
    kernels.weighted_sq_batch(diagonal_weights_.data(), query_.data(),
                              view.data, view.n, view.dim, out);
    return;
  }
  kernels.mahalanobis_batch(inverse_covariance_.data(), a_q_.data(), q_aq_,
                            view.data, view.n, view.dim, out);
}

double MahalanobisDistance::MinDistance(const Rect& rect) const {
  if (diagonal_) {
    // Exact per-dimension bound for a diagonal quadratic form — tighter
    // than λ_min · d²_euclid whenever the diagonal is anisotropic.
    return linalg::simd::Kernels().weighted_rect_row(
        diagonal_weights_.data(), query_.data(), rect.lo.data(),
        rect.hi.data(), dim());
  }
  return min_eigenvalue_ * rect.SquaredEuclideanDistance(query_);
}

bool MahalanobisDistance::Decompose(QuadraticDecomposition* out) const {
  out->components.clear();
  out->harmonic = false;
  out->total_weight = 0.0;
  QuadraticComponent& c = out->components.emplace_back();
  c.query = query_;
  if (diagonal_) {
    c.diagonal = diagonal_weights_;
  } else {
    c.full = inverse_covariance_;
  }
  return true;
}

}  // namespace qcluster::index
