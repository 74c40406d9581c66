// Log-domain numerics shared by the mixture models and the particle filter.
#pragma once

#include <vector>

namespace cimnav::prob {

/// log(sum_i exp(v[i])) computed stably; -inf for empty input.
double log_sum_exp(const std::vector<double>& v);

/// Normalizes log-weights in place to sum to one in linear space and
/// returns the linear weights. Handles all -inf by returning uniform.
std::vector<double> normalize_log_weights(const std::vector<double>& logw);

}  // namespace cimnav::prob
