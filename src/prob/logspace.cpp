#include "prob/logspace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cimnav::prob {

double log_sum_exp(const std::vector<double>& v) {
  if (v.empty()) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(v.begin(), v.end());
  if (!std::isfinite(m)) return m;  // all -inf (or a stray +inf/nan)
  double s = 0.0;
  for (double x : v) s += std::exp(x - m);
  return m + std::log(s);
}

std::vector<double> normalize_log_weights(const std::vector<double>& logw) {
  std::vector<double> w(logw.size(), 0.0);
  if (logw.empty()) return w;
  const double lse = log_sum_exp(logw);
  if (!std::isfinite(lse)) {
    // Degenerate: no information; fall back to uniform.
    const double u = 1.0 / static_cast<double>(logw.size());
    std::fill(w.begin(), w.end(), u);
    return w;
  }
  for (std::size_t i = 0; i < logw.size(); ++i) w[i] = std::exp(logw[i] - lse);
  return w;
}

}  // namespace cimnav::prob
