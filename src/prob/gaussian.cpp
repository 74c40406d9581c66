#include "prob/gaussian.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cimnav::prob {
namespace {
constexpr double kLog2Pi = 1.8378770664093454835606594728112;
}

DiagGaussian::DiagGaussian() : DiagGaussian({0, 0, 0}, {1, 1, 1}) {}

DiagGaussian::DiagGaussian(const core::Vec3& mean, const core::Vec3& sigma)
    : mean_(mean), sigma_(sigma) {
  CIMNAV_REQUIRE(sigma.x > 0.0 && sigma.y > 0.0 && sigma.z > 0.0,
                 "Gaussian sigmas must be positive");
  log_norm_ = -1.5 * kLog2Pi -
              std::log(sigma_.x) - std::log(sigma_.y) - std::log(sigma_.z);
}

double DiagGaussian::mahalanobis2(const core::Vec3& p) const {
  const double dx = (p.x - mean_.x) / sigma_.x;
  const double dy = (p.y - mean_.y) / sigma_.y;
  const double dz = (p.z - mean_.z) / sigma_.z;
  return dx * dx + dy * dy + dz * dz;
}

double DiagGaussian::log_pdf(const core::Vec3& p) const {
  return log_norm_ - 0.5 * mahalanobis2(p);
}

double DiagGaussian::pdf(const core::Vec3& p) const {
  return std::exp(log_pdf(p));
}

core::Vec3 DiagGaussian::sample(core::Rng& rng) const {
  return {rng.normal(mean_.x, sigma_.x), rng.normal(mean_.y, sigma_.y),
          rng.normal(mean_.z, sigma_.z)};
}

}  // namespace cimnav::prob
