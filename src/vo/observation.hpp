// Landmark observation model — the sensing front-end of the synthetic VO
// task (substituting for the camera-frame feature extraction the paper's
// dataset provides; see DESIGN.md).
//
// A fixed set of visual landmarks is observed from each pose: each
// landmark's body-frame position is squashed through a bounded rational
// map into (0, 1)^3 so the feature vector is directly consumable by the
// unsigned CIM input quantizer. Observation noise models feature jitter.
#pragma once

#include <vector>

#include "core/rng.hpp"
#include "core/vec.hpp"
#include "nn/tensor.hpp"

namespace cimnav::vo {

/// Fixed landmark field with bounded body-frame encodings.
class ObservationModel {
 public:
  /// `landmark_count` landmarks uniform in [box_min, box_max].
  static ObservationModel random(int landmark_count,
                                 const core::Vec3& box_min,
                                 const core::Vec3& box_max, core::Rng& rng);

  explicit ObservationModel(std::vector<core::Vec3> landmarks,
                            double noise_sigma = 0.01,
                            double max_range_m = 3.0);

  /// Landmarks farther than this read as the neutral feature 0.5 —
  /// the occlusion/visibility effect that makes some frames genuinely
  /// harder than others (the heteroscedasticity behind Fig. 3f).
  double max_range() const { return max_range_m_; }

  int landmark_count() const { return static_cast<int>(landmarks_.size()); }
  const std::vector<core::Vec3>& landmarks() const { return landmarks_; }

  /// Feature dimension per frame (3 per landmark).
  int feature_size() const { return 3 * landmark_count(); }

  /// Observes all landmarks from `pose`: body-frame coordinates squashed
  /// into (0,1), with additive Gaussian noise before squashing.
  nn::Vector observe(const core::Pose& pose, core::Rng& rng) const;

  /// Allocation-reusing variant: writes the observation into `out`
  /// (capacity kept across calls). Identical draws and values to
  /// observe().
  void observe_into(const core::Pose& pose, core::Rng& rng,
                    nn::Vector& out) const;

 private:
  std::vector<core::Vec3> landmarks_;
  double noise_sigma_;
  double max_range_m_;
};

/// Bounded squashing map R -> (0, 1): 0.5 + 0.5 * x / (|x| + s).
double squash(double x, double softness);

}  // namespace cimnav::vo
