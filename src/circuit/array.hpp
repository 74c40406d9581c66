// Inverter-array likelihood engine (paper Fig. 2a).
//
// A bank of six-transistor inverter columns shares three analog input lines
// (V_X, V_Y, V_Z). Each column is floating-gate-programmed to one mixture
// component: its branch centers realize the component mean and its branch
// widths the per-axis sigma, both in the voltage domain. Component weights
// are realized by *column replication* — a component with twice the weight
// drives twice the columns — so the total bit-line current is proportional
// to the mixture sum by Kirchhoff's law. A logarithmic ADC digitizes the
// summed current directly into a log-likelihood reading.
//
// Non-idealities modeled: DAC quantization of the inputs (shared across all
// columns), per-device threshold mismatch (optionally compensated by
// program-and-verify), shot/thermal read noise, and log-ADC quantization.
//
// Performance note: because inputs pass through a DAC, each branch sees at
// most 2^dac_bits distinct voltages, so branch responses are tabulated at
// programming time from the *mismatched* devices, i.e. a faithful
// tabulation of the analog behavior, not an idealization. The table is
// one flat buffer laid out [axis][dac code][column] holding reciprocal
// branch currents 1/i (+inf where the branch is off, i <= 0), so a read
// sums 1 / (rx + ry + rz) over three contiguous rows in column order. That
// is bit-identical to dividing per read: the harmonic sum
// ((0 + 1/ix) + 1/iy) + 1/iz equals (rx + ry) + rz, and an off branch makes
// the sum +inf, whose reciprocal adds the same +0 A as a dead column.
//
// The ideal current is therefore a pure function of the three DAC codes.
// key() packs them into one 32-bit code-triple key and ideal_current(key)
// is the one column loop; the point overload is ideal_current(key(point)).
// A caller that scores many reads at once (filter::CimHmgmLikelihood's
// particle-block entry) evaluates each distinct key once and applies the
// per-read noise and log-ADC afterwards: the simulator computes less, the
// modeled hardware still performs (and is charged for) every read.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/converters.hpp"
#include "circuit/inverter.hpp"
#include "circuit/noise.hpp"
#include "core/rng.hpp"
#include "core/vec.hpp"

namespace cimnav::circuit {

/// One mixture component expressed in the voltage domain.
struct VoltageComponent {
  core::Vec3 center_v;  ///< Bump centers per axis [V]
  core::Vec3 sigma_v;   ///< Bump widths per axis [V]
  double weight = 1.0;  ///< Non-negative mixture weight
};

/// Static configuration of a likelihood array.
struct LikelihoodArrayConfig {
  int total_columns = 500;  ///< Hardware columns available
  int dac_bits = 4;         ///< Input DAC resolution
  int adc_bits = 4;         ///< Log-ADC resolution
  double vdd_v = 1.0;
  /// Usable input window [v_margin, vdd - v_margin]; the extreme codes sit
  /// away from the rails where the devices shut off entirely.
  double v_margin_v = 0.05;
  /// Target per-column peak current; columns are sized to hit this.
  double peak_current_a = 1.0e-6;
  /// Threshold-voltage mismatch sigma per device [V].
  double mismatch_sigma_vt_v = 0.02;
  /// Iteratively re-trim programming against the mismatched devices.
  bool program_verify = true;
  NoiseParams noise;
  MosfetParams nmos;
  MosfetParams pmos;
  /// Log-ADC range as fractions of (total peak current). The lower bound
  /// sets the likelihood floor; decades below peak.
  double adc_floor_fraction = 1.0e-6;
};

/// Compiled, programmed inverter array evaluating mixture likelihoods.
class CimLikelihoodArray {
 public:
  /// Programs the array for the given components. Columns are allocated to
  /// components proportionally to weight (largest-remainder rounding, at
  /// least one column per component). Throws if there are more components
  /// than columns, or if dac_bits lies outside [1, 10] (three codes must
  /// pack into one 32-bit key).
  CimLikelihoodArray(const LikelihoodArrayConfig& config,
                     const std::vector<VoltageComponent>& components,
                     core::Rng& rng);

  /// DAC code triple of an input point packed into one key: code(x) in
  /// bits [0, b), code(y) in [b, 2b) and code(z) in [2b, 3b), b =
  /// dac_bits. Inputs are DAC-quantized exactly as the hardware would
  /// (out-of-range inputs clamp to the end codes, NaN encodes to code 0).
  std::uint32_t key(const core::Vec3& point_v) const {
    const auto b = static_cast<unsigned>(dac_.bits());
    return dac_.encode(point_v.x) | dac_.encode(point_v.y) << b |
           dac_.encode(point_v.z) << 2 * b;
  }

  /// Ideal (noise-free) summed current for a packed code triple [A].
  /// Throws if `key` sets bits at or above 3 * dac_bits.
  double ideal_current(std::uint32_t key) const;

  /// Ideal (noise-free) summed current for an input point [A]:
  /// ideal_current(key(point_v)).
  double ideal_current(const core::Vec3& point_v) const {
    return ideal_current(key(point_v));
  }

  /// One noisy analog read of the summed current [A].
  double read_current(const core::Vec3& point_v, core::Rng& rng) const;

  /// Full pipeline: DAC -> array -> noise -> log ADC. Returns the digital
  /// log-current reading (natural log of amps), a pose-independent affine
  /// transform of the mixture log-likelihood.
  double read_log_likelihood(const core::Vec3& point_v, core::Rng& rng) const;

  int column_count() const { return config_.total_columns; }
  const std::vector<int>& columns_per_component() const {
    return columns_per_component_;
  }
  const Dac& dac() const { return dac_; }
  const LogAdc& adc() const { return adc_; }
  const LikelihoodArrayConfig& config() const { return config_; }

 private:
  LikelihoodArrayConfig config_;
  Dac dac_;
  LogAdc adc_;
  std::vector<int> columns_per_component_;
  // Reciprocal branch currents [1/A], [axis][dac code][column]; see the
  // performance note above.
  std::vector<double> recip_;

  /// Offset of the (axis, code) row in recip_.
  std::size_t row(std::size_t axis, std::uint32_t code) const {
    return (axis * dac_.levels() + code) *
           static_cast<std::size_t>(config_.total_columns);
  }
};

/// Allocates `total` columns across components proportionally to weights
/// using the largest-remainder method; every component receives >= 1.
/// Exposed for testing.
std::vector<int> allocate_columns(const std::vector<double>& weights,
                                  int total);

}  // namespace cimnav::circuit
