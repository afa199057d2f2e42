#include "index/distance.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
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

double MinEigenvalueBound::Of(const Matrix& a) const {
  double bound = value_.load(std::memory_order_relaxed);
  if (bound < 0.0) {
    bound = linalg::MinEigenvalueLowerBound(a);
    MetricAdd("index.min_eigenvalue_bounds");
    value_.store(bound, std::memory_order_relaxed);
  }
  return bound;
}

QuadraticComponent QuadraticComponent::Of(Vector query, Matrix a,
                                          double weight) {
  QCLUSTER_CHECK(static_cast<int>(query.size()) == a.rows());
  QCLUSTER_CHECK(a.rows() == a.cols());
  QuadraticComponent term;
  term.query = std::move(query);
  term.weight = weight;
  if (a.IsDiagonal()) {
    term.diagonal = a.Diag();
  } else {
    term.full = std::move(a);
  }
  return term;
}

double QuadraticComponent::MinDistance(const Rect& rect) const {
  if (diagonal.empty()) {
    return min_eigenvalue.Of(full) * rect.SquaredEuclideanDistance(query);
  }
  return linalg::simd::Kernels().weighted_rect_row(
      diagonal.data(), query.data(), rect.lo.data(), rect.hi.data(),
      static_cast<int>(query.size()));
}

EuclideanDistance::EuclideanDistance(Vector query) {
  QCLUSTER_CHECK(!query.empty());
  QuadraticComponent& term = terms_.components.emplace_back();
  term.diagonal.assign(query.size(), 1.0);
  term.query = std::move(query);
}

double EuclideanDistance::DistanceRow(const double* x) const {
  return linalg::simd::Kernels().squared_l2_row(query().data(), x, dim());
}

void EuclideanDistance::DistanceBatch(const FlatView& view,
                                      double* out) const {
  QCLUSTER_CHECK(view.dim == dim());
  linalg::simd::Kernels().squared_l2_batch(query().data(), view.data, view.n,
                                           view.dim, out);
}

double EuclideanDistance::MinDistance(const Rect& rect) const {
  return rect.SquaredEuclideanDistance(query());
}

MahalanobisDistance::MahalanobisDistance(Vector query,
                                         Matrix inverse_covariance) {
  terms_.components.push_back(QuadraticComponent::Of(
      std::move(query), std::move(inverse_covariance)));
  const QuadraticComponent& t = term();
  if (t.diagonal.empty()) {
    a_q_ = t.full.MatVec(t.query);
    q_aq_ = linalg::Dot(t.query, a_q_);
  }
}

double MahalanobisDistance::DistanceRow(const double* x) const {
  const auto& kernels = linalg::simd::Kernels();
  const QuadraticComponent& t = term();
  if (!t.diagonal.empty()) {
    return kernels.weighted_sq_row(t.diagonal.data(), t.query.data(), x,
                                   dim());
  }
  return kernels.mahalanobis_row(t.full.data(), a_q_.data(), q_aq_, x, dim());
}

void MahalanobisDistance::DistanceBatch(const FlatView& view,
                                        double* out) const {
  QCLUSTER_CHECK(view.dim == dim());
  const auto& kernels = linalg::simd::Kernels();
  const QuadraticComponent& t = term();
  if (!t.diagonal.empty()) {
    kernels.weighted_sq_batch(t.diagonal.data(), t.query.data(), view.data,
                              view.n, view.dim, out);
    return;
  }
  kernels.mahalanobis_batch(t.full.data(), a_q_.data(), q_aq_, view.data,
                            view.n, view.dim, out);
}

double MahalanobisDistance::MinDistance(const Rect& rect) const {
  return term().MinDistance(rect);
}

}  // namespace qcluster::index
