// Divergence estimators used to quantify how closely the co-designed HMGM
// map matches the conventional GMM map (Sec. II-B comparison).
#pragma once

#include <functional>

#include "core/rng.hpp"
#include "core/vec.hpp"

namespace cimnav::prob {

/// Density interface for divergence estimation.
struct DensityView {
  std::function<double(const core::Vec3&)> log_pdf;
  std::function<core::Vec3(core::Rng&)> sample;
};

/// Monte-Carlo estimate of KL(p || q) = E_p[log p - log q] with n samples.
double mc_kl_divergence(const DensityView& p, const DensityView& q,
                        int n_samples, core::Rng& rng);

/// RMSE between two (already comparable) density fields sampled on a
/// regular grid over [lo, hi]^3 with `n` points per axis.
double grid_field_rmse(const std::function<double(const core::Vec3&)>& f,
                       const std::function<double(const core::Vec3&)>& g,
                       const core::Vec3& lo, const core::Vec3& hi, int n);

}  // namespace cimnav::prob
