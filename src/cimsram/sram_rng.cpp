#include "cimsram/sram_rng.hpp"

#include <cmath>

#include "core/error.hpp"
#include "core/vec.hpp"

namespace cimnav::cimsram {

SramRng::SramRng(const SramRngParams& params, core::Rng& process_rng)
    : params_(params) {
  CIMNAV_REQUIRE(params.rows > 0, "rows must be positive");
  CIMNAV_REQUIRE(params.columns_per_side > 0, "columns must be positive");
  CIMNAV_REQUIRE(params.leak_nominal_a > 0.0, "leakage must be positive");
  CIMNAV_REQUIRE(params.leak_sigma_ln >= 0.0, "mismatch sigma must be >= 0");
  CIMNAV_REQUIRE(params.noise_rms_a >= 0.0, "noise rms must be >= 0");

  // Draw the fixed-pattern leakage of every write port once. Each cell's
  // leakage is lognormal in its V_T deviation; bundle sums realize the
  // 1/sqrt(N) relative-mismatch filtering the paper exploits.
  const int cells = params.rows * params.columns_per_side;
  auto bundle_leak = [&] {
    double sum = 0.0;
    for (int i = 0; i < cells; ++i)
      sum += params.leak_nominal_a *
             std::exp(process_rng.normal(0.0, params.leak_sigma_ln));
    return sum;
  };
  side_a_leak_a_ = bundle_leak();
  side_b_leak_a_ = bundle_leak();
  comparator_offset_a_ =
      process_rng.normal(0.0, params.comparator_offset_sigma_a);

  // Independent per-cell noise currents add in power across both bundles;
  // supply jitter couples differentially in proportion to the total
  // discharge current.
  const double per_cell =
      params.noise_rms_a * std::sqrt(2.0 * static_cast<double>(cells));
  const double jitter =
      params.supply_jitter_coeff * (side_a_leak_a_ + side_b_leak_a_);
  noise_sigma_total_a_ = std::sqrt(per_cell * per_cell + jitter * jitter);
}

double SramRng::systematic_offset_a() const {
  return (side_a_leak_a_ - side_b_leak_a_) + comparator_offset_a_;
}

bool SramRng::next_bit(core::Rng& noise_rng) {
  ++bits_generated_;
  // The CCI regenerates the sign of the differential discharge current:
  // systematic offset (bias) + fresh noise (entropy) - digital trim.
  const double differential = systematic_offset_a() - trim_a_ +
                              noise_rng.normal(0.0, noise_sigma_total_a_);
  return differential > 0.0;
}

double SramRng::measure_bias(int n, core::Rng& noise_rng) {
  CIMNAV_REQUIRE(n > 0, "need at least one bit");
  int ones = 0;
  for (int i = 0; i < n; ++i) ones += next_bit(noise_rng) ? 1 : 0;
  return static_cast<double>(ones) / static_cast<double>(n);
}

double SramRng::calibrate(int n, core::Rng& noise_rng) {
  const double bias = measure_bias(n, noise_rng);
  // Invert the probit link: P(bit=1) = Phi((offset - trim)/sigma). The
  // estimated offset maps through the inverse normal CDF; clamp the
  // estimate away from 0/1 where the inverse diverges.
  const double p = core::clamp(bias, 1e-4, 1.0 - 1e-4);
  // Acklam-style rational approximation is overkill here; a bisection on
  // the standard normal CDF is exact enough for a trim DAC.
  auto phi = [](double x) { return 0.5 * std::erfc(-x / 1.4142135623730951); };
  double lo = -40.0, hi = 40.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (phi(mid) < p)
      lo = mid;
    else
      hi = mid;
  }
  const double z = 0.5 * (lo + hi);
  trim_a_ += z * noise_sigma_total_a_;
  return bias;
}

std::vector<std::uint8_t> SramRng::dropout_mask(std::size_t n,
                                                core::Rng& noise_rng) {
  std::vector<std::uint8_t> mask(n);
  for (auto& b : mask) b = next_bit(noise_rng) ? 1 : 0;
  return mask;
}

bool SramRng::bernoulli(double p, int resolution_bits, core::Rng& noise_rng) {
  CIMNAV_REQUIRE(p >= 0.0 && p <= 1.0, "p must lie in [0, 1]");
  CIMNAV_REQUIRE(resolution_bits >= 1 && resolution_bits <= 32,
                 "resolution must be in [1, 32]");
  // Compare a uniform in [0,1) built from raw bits against p.
  double u = 0.0, scale = 0.5;
  for (int i = 0; i < resolution_bits; ++i) {
    if (next_bit(noise_rng)) u += scale;
    scale *= 0.5;
  }
  return u < p;
}

Lfsr::Lfsr(std::uint32_t seed) : state_(seed == 0 ? 0xACE1u : seed) {}

bool Lfsr::next_bit() {
  // Galois LFSR with taps 32, 22, 2, 1 (maximal length).
  const bool lsb = (state_ & 1u) != 0;
  state_ >>= 1;
  if (lsb) state_ ^= 0x80200003u;
  return lsb;
}

}  // namespace cimnav::cimsram
