// Dropout-bit sources for MC-Dropout inference (paper Fig. 3a/b).
//
// The engine is agnostic to where dropout bits come from; the paper's
// contribution is generating them *inside* the SRAM macro (SramMaskSource
// wrapping the CCI RNG). A software Bernoulli source is the reference
// stream.
#pragma once

#include <memory>

#include "cimsram/sram_rng.hpp"
#include "core/rng.hpp"

namespace cimnav::bnn {

/// Abstract source of drop decisions.
class MaskSource {
 public:
  virtual ~MaskSource() = default;

  /// Returns true when the neuron should be dropped (probability p_drop).
  virtual bool draw(double p_drop) = 0;

  virtual const char* name() const = 0;
};

/// Ideal software Bernoulli (reference).
class SoftwareMaskSource final : public MaskSource {
 public:
  explicit SoftwareMaskSource(core::Rng rng) : rng_(rng) {}
  bool draw(double p_drop) override { return rng_.bernoulli(p_drop); }
  const char* name() const override { return "software"; }

 private:
  core::Rng rng_;
};

/// SRAM-embedded CCI RNG source; p != 0.5 uses binary-expansion draws.
class SramMaskSource final : public MaskSource {
 public:
  SramMaskSource(const cimsram::SramRngParams& params, core::Rng process_rng,
                 core::Rng noise_rng, int calibration_bits = 4096);

  bool draw(double p_drop) override;
  const char* name() const override { return "sram-cci"; }

  cimsram::SramRng& rng() { return rng_; }
  double initial_bias() const { return initial_bias_; }

 private:
  core::Rng process_rng_;
  core::Rng noise_rng_;
  cimsram::SramRng rng_;
  double initial_bias_ = 0.5;
};

}  // namespace cimnav::bnn
