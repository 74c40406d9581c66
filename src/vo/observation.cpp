#include "vo/observation.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cimnav::vo {
namespace {
constexpr double kSoftness = 2.0;  // meters at which features half-saturate
}

double squash(double x, double softness) {
  return 0.5 + 0.5 * x / (std::abs(x) + softness);
}

ObservationModel ObservationModel::random(int landmark_count,
                                          const core::Vec3& box_min,
                                          const core::Vec3& box_max,
                                          core::Rng& rng) {
  CIMNAV_REQUIRE(landmark_count > 0, "need at least one landmark");
  std::vector<core::Vec3> pts;
  pts.reserve(static_cast<std::size_t>(landmark_count));
  for (int i = 0; i < landmark_count; ++i) {
    pts.push_back({rng.uniform(box_min.x, box_max.x),
                   rng.uniform(box_min.y, box_max.y),
                   rng.uniform(box_min.z, box_max.z)});
  }
  return ObservationModel(std::move(pts));
}

ObservationModel::ObservationModel(std::vector<core::Vec3> landmarks,
                                   double noise_sigma, double max_range_m)
    : landmarks_(std::move(landmarks)), noise_sigma_(noise_sigma),
      max_range_m_(max_range_m) {
  CIMNAV_REQUIRE(!landmarks_.empty(), "need at least one landmark");
  CIMNAV_REQUIRE(noise_sigma >= 0.0, "noise sigma must be non-negative");
  CIMNAV_REQUIRE(max_range_m > 0.0, "range must be positive");
}

nn::Vector ObservationModel::observe(const core::Pose& pose,
                                     core::Rng& rng) const {
  nn::Vector f;
  observe_into(pose, rng, f);
  return f;
}

void ObservationModel::observe_into(const core::Pose& pose, core::Rng& rng,
                                    nn::Vector& f) const {
  f.clear();
  f.reserve(static_cast<std::size_t>(feature_size()));
  for (const auto& lm : landmarks_) {
    core::Vec3 body = pose.inverse_transform(lm);
    const double dist = body.norm();
    if (dist > max_range_m_) {
      // Out of range: the tracker loses the landmark; neutral features.
      f.push_back(0.5);
      f.push_back(0.5);
      f.push_back(0.5);
      continue;
    }
    if (noise_sigma_ > 0.0) {
      // Depth-style noise growing with distance (stereo/time-of-flight).
      const double sigma = noise_sigma_ * (1.0 + dist / max_range_m_);
      body += {rng.normal(0.0, sigma), rng.normal(0.0, sigma),
               rng.normal(0.0, sigma)};
    }
    f.push_back(squash(body.x, kSoftness));
    f.push_back(squash(body.y, kSoftness));
    f.push_back(squash(body.z, kSoftness));
  }
}

}  // namespace cimnav::vo
