// qlint fixture: fp-determinism covers engine code too (this file's path is
// under core/). The goldens pin what classification and merging compute,
// so a fused or reordered sum here moves them.
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fixture {

double FusedT2(const std::vector<double>& diff,
               const std::vector<double>& inverse_diag, double scale) {
  double quad = 0.0;
  for (std::size_t d = 0; d < diff.size(); ++d) {
    // finding: fma fuses the rounding step of the quadratic form.
    quad = std::fma(diff[d] * inverse_diag[d], diff[d], quad);
  }
  return scale * quad;
}

double TotalWeight(const std::vector<double>& weights) {
  // finding: std::reduce has an unspecified operation order.
  return std::reduce(weights.begin(), weights.end(), 0.0);
}

double PooledTrace(const std::vector<std::pair<int, double>>& variances) {
  std::unordered_map<int, double> by_cluster(variances.begin(),
                                             variances.end());
  double trace = 0.0;
  for (const auto& entry : by_cluster) {
    trace += entry.second;  // finding: accumulation in hash iteration order
  }
  return trace;
}

}  // namespace fixture
