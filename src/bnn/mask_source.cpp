#include "bnn/mask_source.hpp"

namespace cimnav::bnn {

SramMaskSource::SramMaskSource(const cimsram::SramRngParams& params,
                               core::Rng process_rng, core::Rng noise_rng,
                               int calibration_bits)
    : process_rng_(process_rng), noise_rng_(noise_rng),
      rng_(params, process_rng_) {
  if (calibration_bits > 0)
    initial_bias_ = rng_.calibrate(calibration_bits, noise_rng_);
}

bool SramMaskSource::draw(double p_drop) {
  if (p_drop == 0.5) return rng_.next_bit(noise_rng_);
  return rng_.bernoulli(p_drop, 8, noise_rng_);
}

}  // namespace cimnav::bnn
