// Axis-aligned (diagonal-covariance) 3-D Gaussian, the building block of the
// conventional GMM map model the paper compares against.
#pragma once

#include "core/rng.hpp"
#include "core/vec.hpp"

namespace cimnav::prob {

/// Diagonal 3-D Gaussian N(mean, diag(sigma^2)).
class DiagGaussian {
 public:
  DiagGaussian();  // standard normal
  DiagGaussian(const core::Vec3& mean, const core::Vec3& sigma);

  const core::Vec3& mean() const { return mean_; }
  const core::Vec3& sigma() const { return sigma_; }

  /// Normalized probability density at p.
  double pdf(const core::Vec3& p) const;

  /// log pdf at p (exact, stable).
  double log_pdf(const core::Vec3& p) const;

  /// Squared Mahalanobis distance sum_d ((p_d - mu_d)/sigma_d)^2.
  double mahalanobis2(const core::Vec3& p) const;

  /// Draws one sample.
  core::Vec3 sample(core::Rng& rng) const;

 private:
  core::Vec3 mean_;
  core::Vec3 sigma_;
  double log_norm_;  // precomputed -log((2 pi)^{3/2} sx sy sz)
};

}  // namespace cimnav::prob
