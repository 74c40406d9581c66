#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.hpp"

namespace cimnav::core {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double pearson_correlation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  CIMNAV_REQUIRE(x.size() == y.size(), "correlation needs equal-length data");
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = mean(x), my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> ranks_with_ties(const std::vector<double>& v) {
  const std::size_t n = v.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
    // average 1-based rank of the tie group [i, j]
    const double avg = 0.5 * (static_cast<double>(i + 1) +
                              static_cast<double>(j + 1));
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double spearman_correlation(const std::vector<double>& x,
                            const std::vector<double>& y) {
  CIMNAV_REQUIRE(x.size() == y.size(), "correlation needs equal-length data");
  return pearson_correlation(ranks_with_ties(x), ranks_with_ties(y));
}

double quantile(std::vector<double> v, double q) {
  CIMNAV_REQUIRE(!v.empty(), "quantile of empty data");
  CIMNAV_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must lie in [0, 1]");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double rms(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

LinearFit linear_fit(const std::vector<double>& x,
                     const std::vector<double>& y) {
  CIMNAV_REQUIRE(x.size() == y.size() && x.size() >= 2,
                 "linear_fit needs >= 2 paired samples");
  const double mx = mean(x), my = mean(y);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  LinearFit f;
  if (sxx <= 0.0) return f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  f.r2 = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return f;
}

}  // namespace cimnav::core
