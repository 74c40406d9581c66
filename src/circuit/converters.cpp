#include "circuit/converters.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace cimnav::circuit {
namespace {

std::uint32_t levels_for_bits(int bits) {
  CIMNAV_REQUIRE(bits >= 1 && bits <= 24, "converter bits must be in [1, 24]");
  return (std::uint32_t{1} << bits);
}

/// Rounds a fractional code index into [0, levels - 1]. NaN maps to code
/// 0 and +-inf to the range ends, so every input yields a valid code.
std::uint32_t clamp_code(double idx, std::uint32_t levels) {
  if (!(idx > 0.0)) return 0;
  if (idx >= static_cast<double>(levels - 1)) return levels - 1;
  return static_cast<std::uint32_t>(std::lround(idx));
}

}  // namespace

Dac::Dac(int bits, double v_min, double v_max)
    : bits_(bits), levels_(levels_for_bits(bits)), v_min_(v_min), v_max_(v_max) {
  CIMNAV_REQUIRE(v_max > v_min, "DAC range must be non-empty");
}

std::uint32_t Dac::encode(double v) const {
  const double t = (v - v_min_) / (v_max_ - v_min_);
  return clamp_code(t * static_cast<double>(levels_ - 1), levels_);
}

double Dac::decode(std::uint32_t code) const {
  const std::uint32_t c = std::min(code, levels_ - 1);
  return v_min_ + (v_max_ - v_min_) * static_cast<double>(c) /
                      static_cast<double>(levels_ - 1);
}

double Dac::step() const {
  return (v_max_ - v_min_) / static_cast<double>(levels_ - 1);
}

LogAdc::LogAdc(int bits, double i_min_a, double i_max_a)
    : bits_(bits), levels_(levels_for_bits(bits)) {
  CIMNAV_REQUIRE(i_min_a > 0.0, "log ADC needs a positive lower current");
  CIMNAV_REQUIRE(i_max_a > i_min_a, "log ADC range must be non-empty");
  log_min_ = std::log(i_min_a);
  log_max_ = std::log(i_max_a);
}

std::uint32_t LogAdc::encode(double i_a) const {
  if (i_a <= 0.0) return 0;
  const double t = (std::log(i_a) - log_min_) / (log_max_ - log_min_);
  return clamp_code(t * static_cast<double>(levels_ - 1), levels_);
}

double LogAdc::decode_log(std::uint32_t code) const {
  const std::uint32_t c = std::min(code, levels_ - 1);
  return log_min_ + (log_max_ - log_min_) * static_cast<double>(c) /
                        static_cast<double>(levels_ - 1);
}

}  // namespace cimnav::circuit
