#include "circuit/mosfet.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cimnav::circuit {

Mosfet::Mosfet(const MosfetParams& p) : params_(p) {
  CIMNAV_REQUIRE(p.i_spec_a > 0.0, "I_spec must be positive");
  CIMNAV_REQUIRE(p.n_slope >= 1.0, "slope factor n must be >= 1");
  CIMNAV_REQUIRE(p.thermal_vt_v > 0.0, "thermal voltage must be positive");
  CIMNAV_REQUIRE(p.size_factor > 0.0, "size factor must be positive");
}

void Mosfet::set_size_factor(double f) {
  CIMNAV_REQUIRE(f > 0.0, "size factor must be positive");
  params_.size_factor = f;
}

double Mosfet::effective_vt() const { return params_.vt0_v + delta_vt_v_; }

double Mosfet::drain_current(double v_gs) const {
  const double two_n_vt = 2.0 * params_.n_slope * params_.thermal_vt_v;
  const double u = (v_gs - effective_vt()) / two_n_vt;
  // ln(1 + e^u) evaluated without overflow for large |u|.
  double soft;
  if (u > 30.0) {
    soft = u;
  } else if (u < -30.0) {
    soft = std::exp(u);  // underflows gracefully to 0
  } else {
    soft = std::log1p(std::exp(u));
  }
  return params_.i_spec_a * params_.size_factor * soft * soft;
}

}  // namespace cimnav::circuit
