// SRAM-embedded random number generation (paper Fig. 3b).
//
// During inference the write word lines of the CIM macro are off, so every
// write port leaks a small, threshold-voltage-dependent current into its
// bit line. Summing many ports *filters* the fixed-pattern V_T mismatch
// (relative spread shrinks as 1/sqrt(rows)) while the ports' independent
// noise currents *add*, so the bit-line discharge is a physical entropy
// source. A cross-coupled inverter (CCI) regenerates the difference
// between two column bundles into a digital dropout bit each cycle.
//
// The model keeps the two effects explicit: a per-cell lognormal leakage
// (drawn once -> systematic bundle offset = bias) and a per-read Gaussian
// noise current (fresh every cycle -> entropy). Calibration estimates the
// bias from a serial bit burst and trims it with a digital offset, exactly
// as the paper describes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace cimnav::cimsram {

/// Physical parameters of the CCI entropy source.
struct SramRngParams {
  int rows = 64;                 ///< cells per column
  int columns_per_side = 8;      ///< columns bundled on each CCI end
  double leak_nominal_a = 1e-10; ///< nominal per-cell leakage [A]
  /// sigma of ln(I_leak) per cell from V_T mismatch (lognormal spread).
  double leak_sigma_ln = 0.3;
  /// Per-cell rms noise current per read [A].
  double noise_rms_a = 2e-11;
  /// Comparator input-referred offset sigma [A] (drawn once).
  double comparator_offset_sigma_a = 5e-11;
  /// Supply/clock jitter coupling: differential noise proportional to the
  /// *total* discharge current (mismatched bundle impedances convert
  /// common-mode supply noise into a differential disturbance). This term
  /// grows with rows, which is why summing more ports pushes the raw bias
  /// toward 1/2 — the mismatch-filtering effect of paper Fig. 3(b).
  double supply_jitter_coeff = 0.004;
};

/// Cross-coupled-inverter RNG harvesting SRAM bit-line leakage noise.
class SramRng {
 public:
  /// Instantiates the physical array: per-cell leakage and the comparator
  /// offset are drawn once from `process_rng` (fixed-pattern); `noise_rng`
  /// drives the per-read stochastic part.
  SramRng(const SramRngParams& params, core::Rng& process_rng);

  /// One raw dropout bit (before calibration trim is applied it is biased
  /// by the fixed-pattern offset).
  bool next_bit(core::Rng& noise_rng);

  /// Estimates P(bit = 1) from `n` serial bits (consumes entropy).
  double measure_bias(int n, core::Rng& noise_rng);

  /// Two-phase calibration: measures the bias over `n` bits and sets the
  /// digital trim so the decision threshold re-centers. Returns the
  /// pre-calibration bias estimate.
  double calibrate(int n, core::Rng& noise_rng);

  /// Current trim value [A] (0 before calibration).
  double trim_a() const { return trim_a_; }

  /// Systematic bundle current offset [A] (test/diagnostic access).
  double systematic_offset_a() const;

  /// Fills a Bernoulli(1/2) dropout mask of length n.
  std::vector<std::uint8_t> dropout_mask(std::size_t n, core::Rng& noise_rng);

  /// Bernoulli(p) from `resolution_bits` raw bits (binary expansion
  /// comparison); p = 0.5 costs a single bit.
  bool bernoulli(double p, int resolution_bits, core::Rng& noise_rng);

  const SramRngParams& params() const { return params_; }

  /// Raw bits generated so far (throughput accounting).
  std::uint64_t bits_generated() const { return bits_generated_; }

 private:
  SramRngParams params_;
  double side_a_leak_a_ = 0.0;  ///< summed fixed-pattern leakage, side A
  double side_b_leak_a_ = 0.0;
  double comparator_offset_a_ = 0.0;
  double noise_sigma_total_a_ = 0.0;  ///< per-read sigma of the difference
  double trim_a_ = 0.0;
  std::uint64_t bits_generated_ = 0;
};

/// 32-bit Galois LFSR — the conventional digital baseline the paper's RNG
/// replaces. Deterministic, biased-free, but costs dedicated logic and
/// produces correlated sequences under seed reuse.
class Lfsr {
 public:
  explicit Lfsr(std::uint32_t seed = 0xACE1u);

  bool next_bit();

 private:
  std::uint32_t state_;
};

}  // namespace cimnav::cimsram
