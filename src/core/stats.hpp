// Statistics utilities used by the benches and the uncertainty analyses:
// streaming moments (Welford), correlation coefficients, quantiles and
// simple least-squares fits.
#pragma once

#include <cstddef>
#include <vector>

namespace cimnav::core {

/// Streaming mean/variance accumulator (Welford's algorithm). Numerically
/// stable; O(1) per sample.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (divide by n). Zero for fewer than 1 sample.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Pearson linear correlation coefficient. Requires x.size() == y.size() and
/// at least two samples with non-zero variance on both axes; returns 0 for
/// degenerate inputs.
double pearson_correlation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Spearman rank correlation (Pearson on ranks, average ranks for ties).
double spearman_correlation(const std::vector<double>& x,
                            const std::vector<double>& y);

/// Ranks with ties assigned the average rank (1-based).
std::vector<double> ranks_with_ties(const std::vector<double>& v);

/// q-quantile (q in [0,1]) with linear interpolation; copies and sorts.
double quantile(std::vector<double> v, double q);

/// Root-mean-square of a vector (0 for empty input).
double rms(const std::vector<double>& v);

/// Mean of a vector (0 for empty input).
double mean(const std::vector<double>& v);

/// Ordinary least squares fit y ≈ a + b*x. Returns {a, b, r2}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit linear_fit(const std::vector<double>& x,
                     const std::vector<double>& y);

}  // namespace cimnav::core
